package population

import (
	"math"
	"testing"

	"geonet/internal/geo"
	"geonet/internal/rng"
)

func buildTestWorld(t *testing.T) *World {
	t.Helper()
	return Build(rng.New(1))
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(rng.New(7))
	b := Build(rng.New(7))
	if len(a.Places) != len(b.Places) {
		t.Fatalf("place counts differ: %d vs %d", len(a.Places), len(b.Places))
	}
	for i := range a.Places {
		if a.Places[i] != b.Places[i] {
			t.Fatalf("place %d differs between identical builds", i)
		}
	}
	if a.Raster.Total() != b.Raster.Total() {
		t.Error("raster totals differ between identical builds")
	}
}

func TestRegionPopulationTargets(t *testing.T) {
	w := buildTestWorld(t)
	for _, st := range Stats()[:NumEconRegions-1] {
		got := w.PopulationIn(st.Box) / 1e6
		want := st.PopulationM
		// Box tallies can deviate from regional targets because towns
		// jitter across box edges and city spread mass leaks; 12% is
		// the acceptance band.
		if math.Abs(got-want)/want > 0.12 {
			t.Errorf("%s population = %.0fM, want %.0fM (±12%%)", st.Region, got, want)
		}
	}
}

func TestWorldTotalsMatchTableIII(t *testing.T) {
	w := buildTestWorld(t)
	pop := w.Raster.Total() / 1e6
	if math.Abs(pop-5653)/5653 > 0.02 {
		t.Errorf("world population = %.0fM, want 5653M", pop)
	}
	online := w.OnlineIn(geo.World) / 1e6
	if math.Abs(online-513)/513 > 0.02 {
		t.Errorf("world online = %.1fM, want 513M", online)
	}
}

func TestOnlineFractionOrdering(t *testing.T) {
	// Online penetration must reflect Table III: USA and Australia
	// highest, Africa lowest.
	w := buildTestWorld(t)
	frac := func(box geo.Region) float64 {
		return w.OnlineIn(box) / w.PopulationIn(box)
	}
	usa := frac(geo.USAEcon)
	africa := frac(geo.Africa)
	if usa < 0.4 {
		t.Errorf("USA online fraction = %v, want > 0.4", usa)
	}
	if africa > 0.02 {
		t.Errorf("Africa online fraction = %v, want < 0.02", africa)
	}
	if usa < 20*africa {
		t.Errorf("USA/Africa online fraction ratio = %v, want > 20", usa/africa)
	}
}

func TestPlacesHaveValidLocations(t *testing.T) {
	w := buildTestWorld(t)
	for _, p := range w.Places {
		if !p.Loc.Valid() {
			t.Fatalf("place %q at invalid location %v", p.Name, p.Loc)
		}
		if p.Pop < 0 || p.Online < 0 {
			t.Fatalf("place %q has negative population", p.Name)
		}
		if p.Code == "" {
			t.Fatalf("place %q has no code", p.Name)
		}
	}
}

func TestMajorCityEconMatchesBoxes(t *testing.T) {
	// Every embedded city tagged with a named economic region must
	// actually lie inside that region's survey box (otherwise Table
	// III tallies would silently drop it).
	for _, c := range MajorCities() {
		if c.Econ == EconRestOfWorld {
			continue
		}
		box := Stats()[c.Econ].Box
		if !box.Contains(geo.Pt(c.Lat, c.Lon)) {
			t.Errorf("city %q (%v,%v) tagged %s but outside its box",
				c.Name, c.Lat, c.Lon, c.Econ)
		}
	}
}

func TestRestOfWorldCitiesOutsideNamedBoxes(t *testing.T) {
	for _, c := range MajorCities() {
		if c.Econ != EconRestOfWorld {
			continue
		}
		if got := EconOf(geo.Pt(c.Lat, c.Lon)); got != EconRestOfWorld {
			t.Errorf("city %q tagged Rest-of-World but falls in %s box", c.Name, got)
		}
	}
}

func TestEconOfKnownPoints(t *testing.T) {
	cases := []struct {
		p    geo.Point
		want EconRegion
	}{
		{geo.Pt(40.7, -74.0), EconUSA},
		{geo.Pt(48.9, 2.3), EconWesternEurope},
		{geo.Pt(35.7, 139.7), EconJapan},
		{geo.Pt(-33.9, 151.2), EconAustralia},
		{geo.Pt(-23.5, -46.6), EconSouthAmerica},
		{geo.Pt(19.4, -99.1), EconMexico},
		{geo.Pt(6.5, 3.4), EconAfrica},
		{geo.Pt(37.6, 127.0), EconRestOfWorld}, // Seoul
		{geo.Pt(55.8, 37.6), EconRestOfWorld},  // Moscow
	}
	for _, c := range cases {
		if got := EconOf(c.p); got != c.want {
			t.Errorf("EconOf(%v) = %s, want %s", c.p, got, c.want)
		}
	}
}

func TestCityCodesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, c := range MajorCities() {
		if prev, ok := seen[c.Code]; ok {
			t.Errorf("airport code %q used by both %q and %q", c.Code, prev, c.Name)
		}
		seen[c.Code] = c.Name
	}
}

func TestCityNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range MajorCities() {
		if seen[c.Name] {
			t.Errorf("duplicate city name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestCodeDictionaryPrefersLargerCity(t *testing.T) {
	w := buildTestWorld(t)
	dict := w.CodeDictionary()
	// The dictionary must locate every major city by name token and
	// airport code, at the city's location.
	loc, ok := dict["jfk"]
	if !ok {
		t.Fatal("dictionary missing jfk")
	}
	if geo.DistanceMiles(loc, geo.Pt(40.71, -74.01)) > 5 {
		t.Errorf("jfk maps to %v", loc)
	}
	if _, ok := dict["tokyo"]; !ok {
		t.Error("dictionary missing tokyo name token")
	}
}

func TestPatchTallyMatchesRegionSum(t *testing.T) {
	w := buildTestWorld(t)
	g := geo.NewPatchGrid(geo.US, 75)
	patches := w.Raster.TallyPatches(g)
	sum := 0.0
	for _, v := range patches {
		sum += v
	}
	direct := w.PopulationIn(geo.US)
	if math.Abs(sum-direct)/direct > 0.01 {
		t.Errorf("patch tally %.0f vs region sum %.0f", sum, direct)
	}
}

func TestUSPatchesHeavyTailed(t *testing.T) {
	// Patch populations must be highly skewed (metros vs plains):
	// the top patch should hold far more than the median patch.
	w := buildTestWorld(t)
	g := geo.NewPatchGrid(geo.US, 75)
	patches := w.Raster.TallyPatches(g)
	var nonzero []float64
	max := 0.0
	for _, v := range patches {
		if v > 0 {
			nonzero = append(nonzero, v)
			if v > max {
				max = v
			}
		}
	}
	if len(nonzero) < 100 {
		t.Fatalf("only %d populated US patches; world too sparse", len(nonzero))
	}
	mean := 0.0
	for _, v := range nonzero {
		mean += v
	}
	mean /= float64(len(nonzero))
	if max < 10*mean {
		t.Errorf("max patch %.0f vs mean %.0f: not heavy-tailed", max, mean)
	}
}

func TestRasterDepositAndQuery(t *testing.T) {
	r := NewRaster(15)
	p := geo.Pt(40.0, -100.0)
	r.Deposit(p, 500)
	if got := r.At(p); got != 500 {
		t.Errorf("At = %v, want 500", got)
	}
	r.DepositSpread(p, 1000)
	if got := r.At(p); got != 500+600 {
		t.Errorf("At after spread = %v, want 1100", got)
	}
	if total := r.Total(); math.Abs(total-1500) > 1e-6 {
		t.Errorf("Total = %v, want 1500", total)
	}
}

func TestTopPlaces(t *testing.T) {
	w := buildTestWorld(t)
	top := w.TopPlaces(5)
	if len(top) != 5 {
		t.Fatalf("TopPlaces(5) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Pop > top[i-1].Pop {
			t.Error("TopPlaces not sorted descending")
		}
	}
	if top[0].Name != "tokyo" {
		t.Errorf("largest place = %q, want tokyo", top[0].Name)
	}
}

func TestTownCode(t *testing.T) {
	a := townCode("ashbex12")
	if len(a) != 3 {
		t.Fatalf("townCode length = %d, want 3", len(a))
	}
	for _, c := range a {
		if c < 'a' || c > 'z' {
			t.Fatalf("townCode %q contains non-letter", a)
		}
	}
	if townCode("ashbex12") != a {
		t.Error("townCode not deterministic")
	}
	if townCode("ashbex13") == a {
		t.Error("nearby names should (almost always) differ in code")
	}
}
