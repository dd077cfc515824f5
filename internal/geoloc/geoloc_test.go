package geoloc

import (
	"testing"

	"geonet/internal/dnsdb"
	"geonet/internal/geo"
	"geonet/internal/netgen"
	"geonet/internal/population"
	"geonet/internal/rng"
	"geonet/internal/whois"
)

type fixture struct {
	in  *netgen.Internet
	res Resources
}

var shared *fixture

func setup(tb testing.TB) *fixture {
	tb.Helper()
	if shared != nil {
		return shared
	}
	world := population.Build(rng.New(1))
	cfg := netgen.DefaultConfig()
	cfg.Scale = 0.02
	in := netgen.Build(cfg, world)
	dns, err := dnsdb.FromInternet(in)
	if err != nil {
		tb.Fatal(err)
	}
	shared = &fixture{
		in: in,
		res: Resources{
			DNS:   dns,
			Whois: whois.FromInternet(in),
			Dict:  world.CodeDictionary(),
		},
	}
	return shared
}

func TestHostLabels(t *testing.T) {
	cases := []struct {
		host string
		want []string
	}{
		{"0.so-5-2-0.xl1.nyc8.alter.net", []string{"nyc8", "xl1", "so-5-2-0", "0"}},
		{"core3-lax.sprintlink.net", []string{"core3-lax"}},
		{"gw1.tokyo.example.ne.jp", []string{"tokyo", "gw1"}},
		{"example.net", nil},
		{"r1.example.co.uk", []string{"r1"}},
	}
	for _, c := range cases {
		got := HostLabels(c.host)
		if len(got) != len(c.want) {
			t.Errorf("HostLabels(%q) = %v, want %v", c.host, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("HostLabels(%q) = %v, want %v", c.host, got, c.want)
				break
			}
		}
	}
}

func TestTokenCandidates(t *testing.T) {
	got := TokenCandidates("core3-lax")
	want := map[string]bool{"core3-lax": true, "core3": true, "core": true, "lax": true}
	for _, tok := range got {
		if !want[tok] {
			t.Errorf("unexpected candidate %q", tok)
		}
	}
	has := func(tok string) bool {
		for _, g := range got {
			if g == tok {
				return true
			}
		}
		return false
	}
	if !has("lax") || !has("core") {
		t.Errorf("candidates %v missing lax/core", got)
	}
	// Short fragments are dropped (slot kinds like "so", "ge").
	for _, tok := range TokenCandidates("so-5-2-0") {
		if tok == "so" || tok == "5" {
			t.Errorf("short token %q not filtered", tok)
		}
	}
}

func TestHostnameLookupPaperExample(t *testing.T) {
	dict := map[string]geo.Point{
		"nyc":     geo.Pt(40.71, -74.01),
		"newyork": geo.Pt(40.71, -74.01),
	}
	p, ok := hostnameLookup(dict, "0.so-5-2-0.XL1.NYC8.ALTER.NET")
	if !ok {
		t.Fatal("paper's example hostname did not map")
	}
	if geo.DistanceMiles(p, geo.Pt(40.71, -74.01)) > 1 {
		t.Errorf("mapped to %v, want New York", p)
	}
}

func TestIxMapperCoverageAndAccuracy(t *testing.T) {
	f := setup(t)
	m := NewIxMapper(f.res)
	var mapped, unmapped, within50, total int
	for _, ifc := range f.in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		total++
		p, ok := m.Locate(ifc.IP)
		if !ok {
			unmapped++
			continue
		}
		mapped++
		truth := f.in.Routers[ifc.Router].Loc
		if geo.DistanceMiles(p, truth) < 50 {
			within50++
		}
	}
	unmappedFrac := float64(unmapped) / float64(total)
	if unmappedFrac > 0.04 {
		t.Errorf("IxMapper unmapped = %.2f%%, want ~1-1.5%% (paper)", unmappedFrac*100)
	}
	if unmappedFrac == 0 {
		t.Error("IxMapper should fail for some addresses")
	}
	accuracy := float64(within50) / float64(mapped)
	if accuracy < 0.80 {
		t.Errorf("IxMapper city-level accuracy = %.2f%%, want > 80%%", accuracy*100)
	}
}

func TestEdgeScapeBeatsIxMapperCoverage(t *testing.T) {
	f := setup(t)
	ix := NewIxMapper(f.res)
	es := NewEdgeScape(f.res, f.in, rng.New(5))
	if es.FeedSize() == 0 {
		t.Fatal("empty EdgeScape feed")
	}
	var ixUn, esUn, total int
	for _, ifc := range f.in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		total++
		if _, ok := ix.Locate(ifc.IP); !ok {
			ixUn++
		}
		if _, ok := es.Locate(ifc.IP); !ok {
			esUn++
		}
	}
	if esUn >= ixUn {
		t.Errorf("EdgeScape unmapped (%d) should beat IxMapper (%d) — paper: 0.3-0.6%% vs 1-1.5%%", esUn, ixUn)
	}
	if frac := float64(esUn) / float64(total); frac > 0.02 {
		t.Errorf("EdgeScape unmapped = %.2f%%, want < 2%%", frac*100)
	}
}

func TestEdgeScapeAccuracy(t *testing.T) {
	f := setup(t)
	es := NewEdgeScape(f.res, f.in, rng.New(5))
	var mapped, within50 int
	for _, ifc := range f.in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		p, ok := es.Locate(ifc.IP)
		if !ok {
			continue
		}
		mapped++
		if geo.DistanceMiles(p, f.in.Routers[ifc.Router].Loc) < 50 {
			within50++
		}
	}
	if acc := float64(within50) / float64(mapped); acc < 0.85 {
		t.Errorf("EdgeScape accuracy = %.2f%%, want > 85%%", acc*100)
	}
}

func TestIxMapperFallbackChain(t *testing.T) {
	f := setup(t)
	m := NewIxMapper(f.res)
	counts := map[string]int{}
	for _, ifc := range f.in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		_, method, _ := m.LocateMethod(ifc.IP)
		counts[method]++
	}
	if counts["hostname"] == 0 || counts["loc"] == 0 || counts["whois"] == 0 {
		t.Errorf("fallback chain not fully exercised: %v", counts)
	}
	// Hostname must dominate (it is tried first and conventions are
	// widespread).
	if counts["hostname"] < counts["loc"]+counts["whois"] {
		t.Errorf("hostname mapping should dominate: %v", counts)
	}
}

// TestMethodLocateAgreeEveryInterface locks in the single-path
// invariant: for every interface in the test-scale internet and for
// every tool, LocateMethod's method is non-empty exactly when
// Locate(ip) succeeds, and the two agree on location.
func TestMethodLocateAgreeEveryInterface(t *testing.T) {
	f := setup(t)
	mappers := []MethodMapper{
		NewIxMapper(f.res),
		NewEdgeScape(f.res, f.in, rng.New(5)),
		NewHostnameOnly(f.res),
	}
	for _, m := range mappers {
		for _, ifc := range f.in.Ifaces {
			p, method, ok := m.LocateMethod(ifc.IP)
			lp, lok := m.Locate(ifc.IP)
			if lok != ok || lp != p {
				t.Fatalf("%s: Locate/LocateMethod disagree for iface %d", m.Name(), ifc.ID)
			}
			if (method != "") != ok {
				t.Fatalf("%s: method %q but ok=%v for iface %d", m.Name(), method, ok, ifc.ID)
			}
		}
	}
}

func TestWhoisFallbackReturnsHQ(t *testing.T) {
	f := setup(t)
	m := NewIxMapper(f.res)
	// Find an opaque-named AS with several places; its interfaces
	// that fall through to whois must map to the HQ (the documented
	// HQ-collapse error).
	for _, as := range f.in.ASes {
		if as.Scheme != netgen.SchemeOpaque || len(as.Places) < 3 {
			continue
		}
		if as.PublishesLOC {
			continue
		}
		hq := f.in.World.Places[as.HomePlace].Loc
		checked := 0
		for _, rid := range as.Routers {
			for _, ifid := range f.in.Routers[rid].Ifaces {
				ifc := f.in.Ifaces[ifid]
				if ifc.Private || ifc.IP == 0 {
					continue
				}
				p, ok := m.Locate(ifc.IP)
				if !ok {
					continue
				}
				checked++
				if geo.DistanceMiles(p, hq) > 1 {
					t.Fatalf("opaque AS iface mapped to %v, want HQ %v", p, hq)
				}
			}
		}
		if checked > 0 {
			return
		}
	}
	t.Skip("no opaque multi-place AS without LOC found")
}

func TestLOCBeatsWhoisForPublishingASes(t *testing.T) {
	f := setup(t)
	m := NewIxMapper(f.res)
	// For a LOC-publishing AS with opaque names, interfaces must map
	// via LOC to (near) the router's true position, not the HQ.
	for _, as := range f.in.ASes {
		if !as.PublishesLOC || as.Scheme != netgen.SchemeOpaque {
			continue
		}
		for _, rid := range as.Routers {
			r := f.in.Routers[rid]
			for _, ifid := range r.Ifaces {
				ifc := f.in.Ifaces[ifid]
				if ifc.Private || ifc.IP == 0 || ifc.Hostname == "" {
					continue
				}
				p, ok := m.Locate(ifc.IP)
				if !ok {
					continue
				}
				if geo.DistanceMiles(p, r.Loc) > 0.5 {
					t.Fatalf("LOC-published iface mapped %f mi from truth",
						geo.DistanceMiles(p, r.Loc))
				}
				return
			}
		}
	}
	t.Skip("no LOC-publishing opaque AS found")
}

func TestHostnameOnlyAblation(t *testing.T) {
	f := setup(t)
	full := NewIxMapper(f.res)
	bare := NewHostnameOnly(f.res)
	var fullMapped, bareMapped int
	for _, ifc := range f.in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		if _, ok := full.Locate(ifc.IP); ok {
			fullMapped++
		}
		if _, ok := bare.Locate(ifc.IP); ok {
			bareMapped++
		}
	}
	if bareMapped >= fullMapped {
		t.Errorf("hostname-only (%d) should map fewer than full chain (%d)", bareMapped, fullMapped)
	}
}

func TestPrivateAddressesUnmapped(t *testing.T) {
	f := setup(t)
	m := NewIxMapper(f.res)
	for _, ifc := range f.in.Ifaces {
		if !ifc.Private {
			continue
		}
		if _, ok := m.Locate(ifc.IP); ok {
			t.Fatalf("private address of iface %d was mapped", ifc.ID)
		}
	}
}
