package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []XY{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull of square+interior = %d vertices, want 4: %v", len(hull), hull)
	}
	if got := PolygonArea(hull); math.Abs(got-1) > 1e-12 {
		t.Errorf("square hull area = %v, want 1", got)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := ConvexHull(nil); len(got) != 0 {
		t.Errorf("hull of empty set = %v", got)
	}
	if got := ConvexHull([]XY{{1, 2}}); len(got) != 1 {
		t.Errorf("hull of single point = %v", got)
	}
	two := ConvexHull([]XY{{0, 0}, {3, 4}})
	if len(two) != 2 {
		t.Errorf("hull of two points = %v", two)
	}
	if PolygonArea(two) != 0 {
		t.Error("segment must have zero area")
	}
	// Collinear points: hull is the two extreme points.
	col := ConvexHull([]XY{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if PolygonArea(col) != 0 {
		t.Errorf("collinear point area = %v, want 0", PolygonArea(col))
	}
}

func TestConvexHullDuplicates(t *testing.T) {
	pts := []XY{{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0.5, 1}, {0.5, 1}}
	hull := ConvexHull(pts)
	if len(hull) != 3 {
		t.Fatalf("hull with duplicates = %d vertices, want 3", len(hull))
	}
	if got := PolygonArea(hull); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("triangle area = %v, want 0.5", got)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(200)
		pts := make([]XY, n)
		for i := range pts {
			pts[i] = XY{rng.Float64() * 100, rng.Float64() * 100}
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue
		}
		for _, p := range pts {
			if !InHull(hull, p) {
				t.Fatalf("point %v outside its own hull %v", p, hull)
			}
		}
	}
}

func TestConvexHullIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := make([]XY, 100)
	for i := range pts {
		pts[i] = XY{rng.NormFloat64() * 50, rng.NormFloat64() * 50}
	}
	h1 := ConvexHull(pts)
	h2 := ConvexHull(h1)
	if PolygonArea(h1) != PolygonArea(h2) {
		t.Errorf("hull of hull changed area: %v vs %v", PolygonArea(h1), PolygonArea(h2))
	}
	if len(h2) != len(h1) {
		t.Errorf("hull of hull changed vertex count: %d vs %d", len(h1), len(h2))
	}
}

func TestConvexHullAreaMonotoneUnderInsertion(t *testing.T) {
	// Adding points can never shrink the hull area.
	rng := rand.New(rand.NewSource(23))
	pts := make([]XY, 0, 120)
	prev := 0.0
	for i := 0; i < 120; i++ {
		pts = append(pts, XY{rng.Float64() * 1000, rng.Float64() * 1000})
		area := PolygonArea(ConvexHull(pts))
		if area < prev-1e-9 {
			t.Fatalf("hull area shrank from %v to %v after adding a point", prev, area)
		}
		prev = area
	}
}

func TestPolygonAreaOrientationInvariant(t *testing.T) {
	ccw := []XY{{0, 0}, {4, 0}, {4, 3}, {0, 3}}
	cw := []XY{{0, 0}, {0, 3}, {4, 3}, {4, 0}}
	if a, b := PolygonArea(ccw), PolygonArea(cw); a != b || a != 12 {
		t.Errorf("areas = %v, %v; want 12, 12", a, b)
	}
}

func TestHullAreaUSRegionScale(t *testing.T) {
	// A hull spanning the continental US should be on the order of
	// millions of square miles (Figure 9(b) x-axis runs to 5e6).
	proj := RegionAlbers(US)
	pts := []Point{
		Pt(47.6, -122.3),  // Seattle
		Pt(34.05, -118.2), // LA
		Pt(25.8, -80.2),   // Miami
		Pt(42.4, -71.1),   // Boston
		Pt(41.9, -87.6),   // Chicago
	}
	area := HullArea(proj, pts)
	if area < 1e6 || area > 4e6 {
		t.Errorf("US-spanning hull area = %g sq mi, want ~2e6", area)
	}
}

func TestHullAreaSingleCityIsZero(t *testing.T) {
	proj := WorldAlbers()
	pts := []Point{nyc, nyc, nyc}
	if got := HullArea(proj, pts); got != 0 {
		t.Errorf("single-location hull area = %v, want 0", got)
	}
}

func TestAlbersRoundTrip(t *testing.T) {
	proj := WorldAlbers()
	f := func(lat, lon float64) bool {
		p := Pt(clampLat(lat)*0.9, clampLon(lon)*0.98) // stay off poles/antimeridian
		x, y := proj.Project(p)
		q := proj.Unproject(x, y)
		return math.Abs(p.Lat-q.Lat) < 1e-6 && math.Abs(p.Lon-q.Lon) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAlbersEqualArea(t *testing.T) {
	// The projection must (approximately) preserve areas: a 1-degree
	// cell at 45N and one at 10N enclose different ground areas, and
	// the projected areas must match spherical ground truth within 1%.
	proj := WorldAlbers()
	cellArea := func(lat, lon float64) float64 {
		corners := []Point{
			Pt(lat, lon), Pt(lat, lon+1), Pt(lat+1, lon+1), Pt(lat+1, lon),
		}
		poly := make([]XY, len(corners))
		for i, c := range corners {
			x, y := proj.Project(c)
			poly[i] = XY{x, y}
		}
		return PolygonArea(poly)
	}
	sphericalArea := func(lat float64) float64 {
		// Area of a 1x1 degree cell on a sphere.
		r := EarthRadiusMiles
		return r * r * (math.Pi / 180) * math.Abs(math.Sin(deg2rad(lat+1))-math.Sin(deg2rad(lat)))
	}
	for _, lat := range []float64{10, 45, -30, 60} {
		got := cellArea(lat, 20)
		want := sphericalArea(lat)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("cell area at lat %v = %f, want %f (±1%%)", lat, got, want)
		}
	}
}

func TestAlbersDateLineUnfold(t *testing.T) {
	// Points just either side of the date line must project far apart
	// (the globe is "unfolded at the International Date Line").
	proj := WorldAlbers()
	x1, _ := proj.Project(Pt(0, 179.9))
	x2, _ := proj.Project(Pt(0, -179.9))
	if math.Abs(x1-x2) < 1000 {
		t.Errorf("date-line points project %f mi apart in x; expected a large unfold gap", math.Abs(x1-x2))
	}
}

func TestRegionAlbersLowDistortionDistances(t *testing.T) {
	// Within the tuned region, planar distance should approximate
	// great-circle distance to within a few percent.
	proj := RegionAlbers(US)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		a := Pt(25+rng.Float64()*25, -125+rng.Float64()*55)
		b := Pt(25+rng.Float64()*25, -125+rng.Float64()*55)
		ax, ay := proj.Project(a)
		bx, by := proj.Project(b)
		planar := math.Hypot(ax-bx, ay-by)
		sphere := DistanceMiles(a, b)
		if sphere > 100 && math.Abs(planar-sphere)/sphere > 0.05 {
			t.Fatalf("planar %f vs great-circle %f for %v-%v", planar, sphere, a, b)
		}
	}
}

func TestBoxCountDimensionLine(t *testing.T) {
	// Points along a line have dimension ~1.
	var pts []Point
	for i := 0; i < 4000; i++ {
		f := float64(i) / 4000
		pts = append(pts, Pt(30+f*15, -120+f*60))
	}
	res := BoxCountDimension(pts, US, 7)
	if res.Dimension < 0.85 || res.Dimension > 1.15 {
		t.Errorf("line dimension = %f, want ~1", res.Dimension)
	}
}

func TestBoxCountDimensionPlane(t *testing.T) {
	// Uniform points in the box have dimension ~2.
	rng := rand.New(rand.NewSource(41))
	var pts []Point
	for i := 0; i < 60000; i++ {
		pts = append(pts, Pt(25+rng.Float64()*25, -150+rng.Float64()*105))
	}
	res := BoxCountDimension(pts, US, 6)
	if res.Dimension < 1.75 || res.Dimension > 2.1 {
		t.Errorf("plane dimension = %f, want ~2", res.Dimension)
	}
}

func TestDistinctLocations(t *testing.T) {
	pts := []Point{nyc, nyc, Pt(40.7129, -74.0061), la, london}
	if got := DistinctLocations(pts); got != 3 {
		t.Errorf("DistinctLocations = %d, want 3", got)
	}
}
