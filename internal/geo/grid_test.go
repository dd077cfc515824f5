package geo

import (
	"math/rand"
	"testing"
)

func TestPatchGridDimensions(t *testing.T) {
	g := NewPatchGrid(US, 75)
	// US box is 105 degrees wide, 25 tall; 75 arcmin = 1.25 degrees.
	if g.cols != 85 || g.rows != 21 {
		t.Errorf("US 75' grid = %dx%d, want 85x21", g.cols, g.rows)
	}
	if g.Cells() != g.cols*g.rows {
		t.Errorf("Cells() inconsistent")
	}
}

func TestPatchGridPatchSizeAboutNinetyMiles(t *testing.T) {
	// The paper notes 75' patches are "about 90 miles on a side" at the
	// latitudes studied. Check the edge length of a patch at 40N.
	g := NewPatchGrid(US, 75)
	idx := g.Index(Pt(40, -100))
	c := g.Center(idx)
	east := Pt(c.Lat, c.Lon+g.deg)
	north := Pt(c.Lat+g.deg, c.Lon)
	ew := DistanceMiles(c, east)
	ns := DistanceMiles(c, north)
	if ns < 80 || ns > 95 {
		t.Errorf("N-S patch edge = %f mi, want ~86", ns)
	}
	if ew < 60 || ew > 80 {
		t.Errorf("E-W patch edge at 40N = %f mi, want ~66", ew)
	}
}

func TestPatchGridIndexRoundTrip(t *testing.T) {
	g := NewPatchGrid(Europe, 75)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		p := Pt(42+rng.Float64()*16, -5+rng.Float64()*27)
		idx := g.Index(p)
		if idx < 0 || idx >= g.Cells() {
			t.Fatalf("index out of range for in-region point %v: %d", p, idx)
		}
		c := g.Center(idx)
		if g.Index(c) != idx {
			t.Fatalf("centre of patch %d indexes to %d", idx, g.Index(c))
		}
	}
}

func TestPatchGridOutside(t *testing.T) {
	g := NewPatchGrid(Japan, 75)
	if g.Index(Pt(40, -100)) != -1 {
		t.Error("point outside region should index to -1")
	}
}

func TestPatchGridTallyConservation(t *testing.T) {
	g := NewPatchGrid(US, 75)
	rng := rand.New(rand.NewSource(9))
	var pts []Point
	inside := 0
	for i := 0; i < 5000; i++ {
		p := randPoint(rng)
		pts = append(pts, p)
		if US.Contains(p) {
			inside++
		}
	}
	counts := g.Tally(pts)
	total := 0.0
	for _, c := range counts {
		if c < 0 {
			t.Fatal("negative count")
		}
		total += c
	}
	if int(total) != inside {
		t.Errorf("tally total = %v, want %d (points inside region)", total, inside)
	}
}

func TestPatchGridPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive patch size")
		}
	}()
	NewPatchGrid(US, 0)
}
