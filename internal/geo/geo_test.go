package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	nyc    = Pt(40.7128, -74.0060)
	la     = Pt(34.0522, -118.2437)
	london = Pt(51.5074, -0.1278)
	tokyo  = Pt(35.6762, 139.6503)
	sydney = Pt(-33.8688, 151.2093)
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64 // statute miles
		tol  float64
	}{
		{nyc, la, 2445, 20},
		{nyc, london, 3461, 30},
		{tokyo, sydney, 4863, 50},
		{nyc, nyc, 0, 1e-9},
	}
	for _, c := range cases {
		got := DistanceMiles(c.a, c.b)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("DistanceMiles(%v, %v) = %.1f, want %.1f ± %.0f", c.a, c.b, got, c.want, c.tol)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Pt(clampLat(lat1), clampLon(lon1))
		b := Pt(clampLat(lat2), clampLon(lon2))
		d1 := DistanceMiles(a, b)
		d2 := DistanceMiles(b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randPoint(rng)
		b := randPoint(rng)
		c := randPoint(rng)
		ab := DistanceMiles(a, b)
		bc := DistanceMiles(b, c)
		ac := DistanceMiles(a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(%v,%v)=%f > %f+%f", a, c, ac, ab, bc)
		}
	}
}

func TestDistanceNonNegativeAndIdentity(t *testing.T) {
	f := func(lat1, lon1 float64) bool {
		p := Pt(clampLat(lat1), clampLon(lon1))
		return DistanceMiles(p, p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		p := Pt(rng.Float64()*120-60, rng.Float64()*340-170)
		dist := rng.Float64() * 500
		brg := rng.Float64() * 360
		q := Destination(p, brg, dist)
		got := DistanceMiles(p, q)
		if math.Abs(got-dist) > 0.5 {
			t.Fatalf("Destination(%v, %f, %f): distance back = %f", p, brg, dist, got)
		}
	}
}

func TestPointKeyQuantisation(t *testing.T) {
	a := Pt(40.71284, -74.00601)
	b := Pt(40.71280, -74.00597) // same 1/100-degree cell
	if a.Key() != b.Key() {
		t.Errorf("nearby points should share a location key: %v vs %v", a.Key(), b.Key())
	}
	c := Pt(40.7328, -74.0060)
	if a.Key() == c.Key() {
		t.Errorf("distinct cells should not collide")
	}
}

func TestPointValid(t *testing.T) {
	if !nyc.Valid() {
		t.Error("nyc should be valid")
	}
	if Pt(91, 0).Valid() || Pt(0, 181).Valid() || Pt(-95, 10).Valid() {
		t.Error("out-of-range points should be invalid")
	}
}

func TestRegionBoundariesMatchPaperTableII(t *testing.T) {
	// Table II of the paper, verbatim.
	if US.North != 50 || US.South != 25 || US.West != -150 || US.East != -45 {
		t.Errorf("US region = %+v, want Table II boundaries", US)
	}
	if Europe.North != 58 || Europe.South != 42 || Europe.West != -5 || Europe.East != 22 {
		t.Errorf("Europe region = %+v, want Table II boundaries", Europe)
	}
	if Japan.North != 60 || Japan.South != 30 || Japan.West != 130 || Japan.East != 150 {
		t.Errorf("Japan region = %+v, want Table II boundaries", Japan)
	}
}

func TestRegionContains(t *testing.T) {
	cases := []struct {
		r    Region
		p    Point
		want bool
	}{
		{US, nyc, true},
		{US, la, true},
		{US, london, false},
		{Europe, london, true},
		{Europe, tokyo, false},
		{Japan, tokyo, true},
		{Japan, sydney, false},
		{World, sydney, true},
		{World, Pt(90, 0), true},
		{Australia, sydney, true},
	}
	for _, c := range cases {
		if got := c.r.Contains(c.p); got != c.want {
			t.Errorf("%s.Contains(%v) = %v, want %v", c.r.Name, c.p, got, c.want)
		}
	}
}

func TestHomogeneityRegionsPartitionUS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := Pt(25+rng.Float64()*25, -150+rng.Float64()*105)
		if !US.Contains(p) {
			t.Fatalf("generated point outside US: %v", p)
		}
		n := NorthernUS.Contains(p)
		s := SouthernUS.Contains(p)
		if n == s {
			t.Fatalf("point %v in both or neither US half (north=%v south=%v)", p, n, s)
		}
	}
}

func TestWorldContainsEverything(t *testing.T) {
	f := func(lat, lon float64) bool {
		return World.Contains(Pt(clampLat(lat), clampLon(lon)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionMaxSpan(t *testing.T) {
	if got := US.MaxSpanMiles(); got < 4000 || got > 8000 {
		t.Errorf("US diagonal = %f mi, outside sanity range", got)
	}
	if eu, jp := Europe.MaxSpanMiles(), Japan.MaxSpanMiles(); eu > US.MaxSpanMiles() || jp > US.MaxSpanMiles() {
		t.Errorf("Europe (%f) and Japan (%f) should be smaller than US", eu, jp)
	}
}

func clampLat(v float64) float64 {
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	return math.Mod(math.Abs(v), 360) - 180
}

func randPoint(rng *rand.Rand) Point {
	return Pt(rng.Float64()*180-90, rng.Float64()*360-180)
}
