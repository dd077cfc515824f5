package analysis

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"geonet/internal/geo"
	"geonet/internal/population"
	"geonet/internal/rng"
	"geonet/internal/topo"
)

// powerLawWorld builds a raster and dataset where node count per patch
// is an exact power of patch population, to verify the regression.
func powerLawWorld(alpha float64) (*topo.Dataset, *population.Raster) {
	raster := population.NewRaster(15)
	d := &topo.Dataset{Name: "power"}
	rnd := rand.New(rand.NewSource(4))
	grid := geo.NewPatchGrid(geo.US, 75)
	for i := 0; i < 300; i++ {
		// One "city" per random patch.
		c := grid.Center(rnd.Intn(grid.Cells()))
		pop := math.Pow(10, 4+rnd.Float64()*3) // 10^4..10^7
		raster.Deposit(c, pop)
		nodes := int(math.Pow(pop, alpha) / math.Pow(10, 4*alpha) * 3)
		if nodes < 1 {
			nodes = 1
		}
		for k := 0; k < nodes; k++ {
			d.Nodes = append(d.Nodes, topo.Node{Loc: c, ASN: 1})
		}
	}
	return d, raster
}

func TestPatchDensityRecoversExponent(t *testing.T) {
	for _, alpha := range []float64{1.0, 1.3, 1.6} {
		d, raster := powerLawWorld(alpha)
		res := PatchDensity(d, raster, geo.US, 75)
		if res.Fit.N < 50 {
			t.Fatalf("alpha=%v: only %d patches", alpha, res.Fit.N)
		}
		if math.Abs(res.Fit.Slope-alpha) > 0.12 {
			t.Errorf("alpha=%v: recovered slope %v", alpha, res.Fit.Slope)
		}
		if res.Fit.R2 < 0.85 {
			t.Errorf("alpha=%v: R2 = %v", alpha, res.Fit.R2)
		}
	}
}

func TestPatchDensitySkipsUnpopulatedPatches(t *testing.T) {
	raster := population.NewRaster(15)
	d := &topo.Dataset{Name: "empty-pop"}
	// Nodes in a patch with zero population.
	d.Nodes = append(d.Nodes, topo.Node{Loc: geo.Pt(40, -100), ASN: 1})
	res := PatchDensity(d, raster, geo.US, 75)
	if res.PatchesSkipped != 1 || len(res.LogPop) != 0 {
		t.Errorf("skipped=%d points=%d, want 1 skip and no points",
			res.PatchesSkipped, len(res.LogPop))
	}
}

func TestRegionDensityRows(t *testing.T) {
	world := population.Build(rng.New(1))
	d := &topo.Dataset{Name: "uniform"}
	// Put one node at each of the world's top 500 places.
	top := slices.Clone(world.Places)
	slices.SortFunc(top, func(a, b population.Place) int { return cmp.Compare(b.Pop, a.Pop) })
	for _, p := range top[:500] {
		d.Nodes = append(d.Nodes, topo.Node{Loc: p.Loc, ASN: 1})
	}
	rows := make([]RegionDensityRow, 0)
	for _, reg := range geo.SurveyRegions() {
		rows = append(rows, RegionDensity(d, world, reg))
	}
	// World row must dominate node count.
	last := rows[len(rows)-1]
	if last.Region.Name != "World" {
		t.Fatal("last survey region should be World")
	}
	if last.Nodes != len(d.Nodes) {
		t.Errorf("world nodes = %d, want %d", last.Nodes, len(d.Nodes))
	}
	for _, r := range rows {
		if r.Nodes > 0 && r.PeoplePerNode <= 0 {
			t.Errorf("%s: bad PeoplePerNode", r.Region.Name)
		}
	}
}

func TestVariabilityRatio(t *testing.T) {
	rows := []RegionDensityRow{
		{PeoplePerNode: 100000, OnlinePerNode: 2000},
		{PeoplePerNode: 1000, OnlinePerNode: 500},
		{PeoplePerNode: 4000, OnlinePerNode: 900},
	}
	if r := VariabilityRatio(rows, false); math.Abs(r-100) > 1e-9 {
		t.Errorf("people ratio = %v, want 100", r)
	}
	if r := VariabilityRatio(rows, true); math.Abs(r-4) > 1e-9 {
		t.Errorf("online ratio = %v, want 4", r)
	}
	if r := VariabilityRatio(nil, false); r != 0 {
		t.Errorf("empty ratio = %v", r)
	}
}
