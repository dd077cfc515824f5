package core_test

import (
	"fmt"
	"log"
	"math"

	"geonet/internal/analysis"
	"geonet/internal/core"
	"geonet/internal/geo"
	"geonet/internal/rng"
	"geonet/internal/topogen"
)

// row returns the first row of an experiment's first table whose
// leading cells are key.
func row(p *core.Pipeline, id string, key ...string) []string {
	rep, err := core.RunExperiment(p, id)
	if err != nil {
		log.Fatal(err)
	}
next:
	for _, r := range rep.Tables[0].Rows {
		for i, k := range key {
			if r[i] != k {
				continue next
			}
		}
		return r
	}
	log.Fatalf("%s has no row %v", id, key)
	return nil
}

// Run the whole reproduction on a small world and read the paper's
// headline numbers off four experiments: the dataset size (Table I),
// the density superlinearity (Figure 2), the distance-sensitivity limit
// (Table V) and the intradomain share of links (Table VI).
func ExampleRun() {
	p, err := core.SharedPipeline() // core.Run(core.TestConfig())
	if err != nil {
		log.Fatal(err)
	}
	t1 := row(p, "table1", "ixmapper, skitter")
	fmt.Printf("table1  skitter/ixmapper: %s nodes, %s links, %s locations\n", t1[1], t1[2], t1[3])
	fmt.Printf("figure2 US skitter density slope: %s\n", row(p, "figure2", "skitter", "US")[2])
	t5 := row(p, "table5", "skitter", "US")
	fmt.Printf("table5  US skitter: %s of links under %s mi\n", t5[3], t5[2])
	fmt.Printf("table6  intradomain share of links: %s\n", row(p, "table6", "World")[5])
	// Output:
	// table1  skitter/ixmapper: 4988 nodes, 6794 links, 643 locations
	// figure2 US skitter density slope: 0.97
	// table5  US skitter: 89.6% of links under 961 mi
	// table6  intradomain share of links: 75.1%
}

// Section V end to end: measure the distance preference of a collected
// dataset, fit the Waxman exponential to its small-d regime, generate a
// Waxman topology with the fitted parameters and re-measure it. The
// distance kernel matches; the uniform placement is nowhere near the
// measured concentration — the paper's verdict on the Waxman model.
func ExampleRun_waxmanFit() {
	p, err := core.SharedPipeline()
	if err != nil {
		log.Fatal(err)
	}
	ds := p.Dataset("skitter", "ixmapper")
	measured := analysis.DistancePreference(ds, geo.US, 35, 100)
	fit := measured.FitSmallD(250)
	alpha := fit.DecayMiles / geo.US.MaxSpanMiles()
	g := topogen.Waxman(1500, geo.US, alpha, 0.4, rng.New(2))
	generated := analysis.DistancePreference(g.Dataset, geo.US, 35, 100)
	refit := generated.FitSmallD(600)
	fmt.Printf("measured US decay %.0f mi -> Waxman(alpha=%.4f) re-measures %.0f mi\n",
		fit.DecayMiles, alpha, refit.DecayMiles)

	// Placement: the densest 75' patch over the mean occupied patch.
	grid := geo.NewPatchGrid(geo.US, 75)
	concentration := func(pts []geo.Point) float64 {
		max, sum, n := 0.0, 0.0, 0
		for _, c := range grid.Tally(pts) {
			if c > 0 {
				n++
				sum += c
				max = math.Max(max, c)
			}
		}
		return max / (sum / float64(n))
	}
	fmt.Printf("placement concentration: measured %.0fx, waxman %.0fx\n",
		concentration(ds.InRegion(geo.US).Points()), concentration(g.Points()))
	// Output:
	// measured US decay 310 mi -> Waxman(alpha=0.0560) re-measures 309 mi
	// placement concentration: measured 33x, waxman 3x
}
