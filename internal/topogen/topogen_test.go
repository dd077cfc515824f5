package topogen

import (
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/geo"
	"geonet/internal/population"
	"geonet/internal/rng"
)

func TestWaxmanDistanceSensitivity(t *testing.T) {
	g := Waxman(800, geo.US, 0.05, 0.5, rng.New(1))
	if len(g.Links) == 0 {
		t.Fatal("no links")
	}
	// Short links must dominate relative to the pair distribution: fit
	// the measured distance preference and expect a negative slope.
	dp := analysis.DistancePreference(g.Dataset, geo.US, 35, 100)
	fit := dp.FitSmallD(1200)
	if fit.Fit.Slope >= 0 {
		t.Errorf("Waxman f(d) slope = %v, want negative (distance decay)", fit.Fit.Slope)
	}
}

func TestWaxmanUniformPlacement(t *testing.T) {
	g := Waxman(3000, geo.US, 0.1, 0.2, rng.New(2))
	// Uniform placement: patch node counts should NOT be heavy-tailed.
	grid := geo.NewPatchGrid(geo.US, 75)
	counts := grid.Tally(g.Points())
	max, sum, nz := 0.0, 0.0, 0
	for _, c := range counts {
		if c > 0 {
			nz++
			sum += c
			if c > max {
				max = c
			}
		}
	}
	mean := sum / float64(nz)
	if max > 12*mean {
		t.Errorf("Waxman placement looks clustered: max %v vs mean %v", max, mean)
	}
}

func TestErdosRenyiNoDistancePreference(t *testing.T) {
	g := ErdosRenyi(900, geo.US, 0.01, rng.New(3))
	dp := analysis.DistancePreference(g.Dataset, geo.US, 35, 100)
	// f(d) should be flat: compare early and late means.
	early, late := 0.0, 0.0
	en, ln := 0, 0
	for i := range dp.D {
		if dp.PairCount[i] < 100 {
			continue
		}
		if dp.D[i] < 500 {
			early += dp.F[i]
			en++
		} else if dp.D[i] > 1500 {
			late += dp.F[i]
			ln++
		}
	}
	if en == 0 || ln == 0 {
		t.Skip("insufficient bins")
	}
	ratio := (early / float64(en)) / (late / float64(ln))
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("ER f(d) early/late = %v, want ~1 (no distance preference)", ratio)
	}
}

func TestBarabasiAlbertDegreeTail(t *testing.T) {
	g := BarabasiAlbert(4000, 2, geo.US, rng.New(4))
	deg := make(map[int32]int)
	for _, l := range g.Links {
		deg[l.A]++
		deg[l.B]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	// Mean degree ~2m=4; a preferential-attachment hub should be far
	// above the mean.
	if max < 40 {
		t.Errorf("BA max degree = %d, want a hub (long tail)", max)
	}
	// Check link count: seed clique + m per new node.
	want := 3 + (4000-3)*2
	if len(g.Links) != want {
		t.Errorf("BA links = %d, want %d", len(g.Links), want)
	}
}

func TestGeoGenReproducesPaperShapes(t *testing.T) {
	world := population.Build(rng.New(1))
	cfg := DefaultGeoGenConfig()
	cfg.Nodes = 2500
	g := GeoGen(cfg, world, geo.US, rng.New(5))
	if len(g.Nodes) != cfg.Nodes || len(g.Links) == 0 {
		t.Fatalf("geogen: %d nodes, %d links", len(g.Nodes), len(g.Links))
	}

	// 1. Placement is population-driven: patch counts heavy-tailed.
	grid := geo.NewPatchGrid(geo.US, 75)
	counts := grid.Tally(g.Points())
	max, sum, nz := 0.0, 0.0, 0
	for _, c := range counts {
		if c > 0 {
			nz++
			sum += c
			if c > max {
				max = c
			}
		}
	}
	if max < 8*(sum/float64(nz)) {
		t.Error("geogen placement not clustered like population")
	}

	// 2. Distance decay in link formation.
	dp := analysis.DistancePreference(g.Dataset, geo.US, 35, 100)
	fit := dp.FitSmallD(400)
	if fit.Fit.Slope >= 0 {
		t.Error("geogen links show no distance decay")
	}

	// 3. AS labels exist and have long-tailed sizes.
	asSizes := map[int]int{}
	for _, n := range g.Nodes {
		if n.ASN == 0 {
			t.Fatal("geogen left a node with no AS")
		}
		asSizes[n.ASN]++
	}
	if len(asSizes) < cfg.ASCount/2 {
		t.Errorf("only %d ASes assigned, want ~%d", len(asSizes), cfg.ASCount)
	}
	maxAS := 0
	for _, s := range asSizes {
		if s > maxAS {
			maxAS = s
		}
	}
	if maxAS < 5*len(g.Nodes)/cfg.ASCount {
		t.Errorf("largest AS = %d nodes; tail too flat", maxAS)
	}

	// 4. Latency annotation tracks distance.
	for i, l := range g.Links {
		wantMin := l.LengthMi / speedMilesPerMs
		if g.LatencyMs[i] < wantMin {
			t.Fatalf("latency %v below propagation bound %v", g.LatencyMs[i], wantMin)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Waxman(200, geo.Europe, 0.1, 0.3, rng.New(9))
	b := Waxman(200, geo.Europe, 0.1, 0.3, rng.New(9))
	if len(a.Links) != len(b.Links) {
		t.Error("Waxman not deterministic")
	}
	world := population.Build(rng.New(1))
	cfg := DefaultGeoGenConfig()
	cfg.Nodes = 300
	g1 := GeoGen(cfg, world, geo.Europe, rng.New(9))
	g2 := GeoGen(cfg, world, geo.Europe, rng.New(9))
	if len(g1.Links) != len(g2.Links) {
		t.Error("GeoGen not deterministic")
	}
}
