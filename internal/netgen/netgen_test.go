package netgen

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"geonet/internal/geo"
	"geonet/internal/population"
	"geonet/internal/rng"
)

// testInternet builds a small world once and shares it across tests.
var testNet *Internet

func buildSmall(tb testing.TB) *Internet {
	tb.Helper()
	if testNet == nil {
		world := population.Build(population.DefaultConfig(), rng.New(1))
		cfg := DefaultConfig()
		cfg.Scale = 0.02
		testNet = Build(cfg, world)
	}
	return testNet
}

func TestBuildDeterministic(t *testing.T) {
	world := population.Build(population.DefaultConfig(), rng.New(1))
	cfg := DefaultConfig()
	cfg.Scale = 0.005
	a := Build(cfg, world)
	b := Build(cfg, world)
	if len(a.Routers) != len(b.Routers) || len(a.Links) != len(b.Links) || len(a.Ifaces) != len(b.Ifaces) {
		t.Fatalf("sizes differ: %d/%d/%d vs %d/%d/%d",
			len(a.Routers), len(a.Links), len(a.Ifaces),
			len(b.Routers), len(b.Links), len(b.Ifaces))
	}
	for i := range a.Ifaces {
		if a.Ifaces[i].IP != b.Ifaces[i].IP || a.Ifaces[i].Hostname != b.Ifaces[i].Hostname {
			t.Fatalf("iface %d differs between identical builds", i)
		}
	}
}

// TestBuildParallelismInvariant pins that the per-AS fan-out of the
// intra-AS link draws changes nothing GOMAXPROCS could reorder: every
// link, interface and router interface list is equal at 1 and at 4.
func TestBuildParallelismInvariant(t *testing.T) {
	world := population.Build(population.DefaultConfig(), rng.New(1))
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	build := func(procs int) *Internet {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Build(cfg, world)
	}
	a, b := build(1), build(4)
	if len(a.Links) != len(b.Links) || len(a.Ifaces) != len(b.Ifaces) || len(a.Routers) != len(b.Routers) {
		t.Fatalf("sizes differ: %d/%d/%d vs %d/%d/%d",
			len(a.Links), len(a.Ifaces), len(a.Routers),
			len(b.Links), len(b.Ifaces), len(b.Routers))
	}
	for i, la := range a.Links {
		lb := b.Links[i]
		if la.A != lb.A || la.B != lb.B || la.Inter != lb.Inter ||
			math.Float64bits(la.LengthMi) != math.Float64bits(lb.LengthMi) {
			t.Fatalf("link %d: %+v at GOMAXPROCS 1, %+v at 4", i, la, lb)
		}
	}
	for i, ia := range a.Ifaces {
		ib := b.Ifaces[i]
		if ia.Router != ib.Router || ia.Link != ib.Link || ia.IP != ib.IP || ia.Hostname != ib.Hostname {
			t.Fatalf("iface %d: %+v at GOMAXPROCS 1, %+v at 4", i, ia, ib)
		}
	}
	for i := range a.Routers {
		if !slices.Equal(a.Routers[i].Ifaces, b.Routers[i].Ifaces) {
			t.Fatalf("router %d: ifaces %v at GOMAXPROCS 1, %v at 4", i, a.Routers[i].Ifaces, b.Routers[i].Ifaces)
		}
	}
}

func TestScaleRoughlySizesWorld(t *testing.T) {
	in := buildSmall(t)
	// At scale 0.02 the paper's 563k interfaces (x1.15 slack) predict
	// ~13k ground-truth interfaces; allow a wide band.
	n := len(in.Ifaces)
	if n < 6000 || n > 30000 {
		t.Errorf("interface count = %d, want ~13k at scale 0.02", n)
	}
	if len(in.Links) == 0 || len(in.Routers) == 0 || len(in.ASes) == 0 {
		t.Fatal("empty internet")
	}
	// Mean degree should be near 3 (links/routers near 1.5).
	ratio := float64(len(in.Links)) / float64(len(in.Routers))
	if ratio < 1.0 || ratio > 2.2 {
		t.Errorf("links/routers = %v, want ~1.5", ratio)
	}
}

func TestEveryASConnectedInternally(t *testing.T) {
	in := buildSmall(t)
	// Union-find over intra-AS links; each AS must form one component.
	parent := make([]int32, len(in.Routers))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range in.Links {
		if l.Inter {
			continue
		}
		a := find(int32(in.Ifaces[l.A].Router))
		b := find(int32(in.Ifaces[l.B].Router))
		if a != b {
			parent[a] = b
		}
	}
	for _, as := range in.ASes {
		if len(as.Routers) < 2 {
			continue
		}
		root := find(int32(as.Routers[0]))
		for _, r := range as.Routers[1:] {
			if find(int32(r)) != root {
				t.Fatalf("AS %d (%d routers) not internally connected", as.Number, len(as.Routers))
			}
		}
	}
}

func TestASGraphConnected(t *testing.T) {
	in := buildSmall(t)
	if len(in.ASes) < 2 {
		t.Skip("too few ASes")
	}
	seen := make([]bool, len(in.ASes))
	queue := []ASID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range in.ASes[cur].Neighbors {
			if !seen[n] {
				seen[n] = true
				count++
				queue = append(queue, n)
			}
		}
	}
	if count != len(in.ASes) {
		t.Errorf("AS graph has %d/%d reachable ASes", count, len(in.ASes))
	}
}

func TestLinkEndpointsDistinctRouters(t *testing.T) {
	in := buildSmall(t)
	for _, l := range in.Links {
		ra := in.Ifaces[l.A].Router
		rb := in.Ifaces[l.B].Router
		if ra == rb {
			t.Fatalf("link %d is a self-loop on router %d", l.ID, ra)
		}
		wantInter := in.Routers[ra].AS != in.Routers[rb].AS
		if l.Inter != wantInter {
			t.Fatalf("link %d Inter=%v but AS equality says %v", l.ID, l.Inter, wantInter)
		}
		gotLen := geo.DistanceMiles(in.Routers[ra].Loc, in.Routers[rb].Loc)
		if math.Abs(gotLen-l.LengthMi) > 1e-6 {
			t.Fatalf("link %d length %v != recomputed %v", l.ID, l.LengthMi, gotLen)
		}
	}
}

func TestUniqueIPs(t *testing.T) {
	in := buildSmall(t)
	seen := map[uint32]IfaceID{}
	for _, ifc := range in.Ifaces {
		if ifc.IP == 0 {
			t.Fatalf("iface %d has zero IP", ifc.ID)
		}
		if prev, dup := seen[ifc.IP]; dup {
			t.Fatalf("IP %d assigned to both iface %d and %d", ifc.IP, prev, ifc.ID)
		}
		seen[ifc.IP] = ifc.ID
		if got, ok := in.ByIP[ifc.IP]; !ok || got != ifc.ID {
			t.Fatalf("ByIP inconsistent for iface %d", ifc.ID)
		}
	}
}

func TestPrefixesCoverInterfaces(t *testing.T) {
	in := buildSmall(t)
	for _, as := range in.ASes {
		for _, rid := range as.Routers {
			for _, ifid := range in.Routers[rid].Ifaces {
				ifc := in.Ifaces[ifid]
				if ifc.Private {
					continue
				}
				covered := false
				for _, p := range as.Prefixes {
					if p.Contains(ifc.IP) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("iface %d (ip %d) of AS %d not covered by its prefixes", ifid, ifc.IP, as.Number)
				}
			}
		}
	}
}

func TestPrefixesDisjointAcrossASes(t *testing.T) {
	in := buildSmall(t)
	type entry struct {
		p  Prefix
		as int
	}
	var all []entry
	for _, as := range in.ASes {
		for _, p := range as.Prefixes {
			all = append(all, entry{p, as.Number})
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.p.Contains(b.p.Addr) || b.p.Contains(a.p.Addr) {
				t.Fatalf("prefixes of AS %d and AS %d overlap", a.as, b.as)
			}
		}
	}
}

func TestPrivateAddressesMarked(t *testing.T) {
	in := buildSmall(t)
	private := 0
	for _, ifc := range in.Ifaces {
		if ifc.Private {
			private++
			if ifc.IP>>24 != 10 {
				t.Fatalf("private iface %d has non-RFC1918 address", ifc.ID)
			}
		} else if ifc.IP>>24 == 10 {
			t.Fatalf("iface %d has 10/8 address but not marked private", ifc.ID)
		}
	}
	frac := float64(private) / float64(len(in.Ifaces))
	if frac > 0.02 {
		t.Errorf("private fraction = %v, want < 2%%", frac)
	}
}

func TestHostnameConventionsCarryGeography(t *testing.T) {
	in := buildSmall(t)
	named, withGeo := 0, 0
	for _, ifc := range in.Ifaces {
		if ifc.Hostname == "" {
			continue
		}
		named++
		r := in.Routers[ifc.Router]
		place := in.World.Places[r.Place]
		if strings.Contains(ifc.Hostname, place.Code) || strings.Contains(ifc.Hostname, place.Name) {
			withGeo++
		}
	}
	if named == 0 {
		t.Fatal("no interfaces have hostnames")
	}
	frac := float64(withGeo) / float64(named)
	// Opaque schemes cover ~15% of ASes, so most names carry geography.
	if frac < 0.6 {
		t.Errorf("only %.0f%% of hostnames carry a geographic token", frac*100)
	}
	nameFrac := float64(named) / float64(len(in.Ifaces))
	if nameFrac < 0.85 {
		t.Errorf("only %.0f%% of interfaces named; NoPTRProb too aggressive", nameFrac*100)
	}
}

func TestASSizesLongTailed(t *testing.T) {
	in := buildSmall(t)
	sizes := make([]int, 0, len(in.ASes))
	largest := 0
	for _, as := range in.ASes {
		sizes = append(sizes, len(as.Routers))
		if len(as.Routers) > largest {
			largest = len(as.Routers)
		}
	}
	n := len(sizes)
	if n < 100 {
		t.Skipf("only %d ASes at this scale", n)
	}
	single := 0
	for _, s := range sizes {
		if s == 1 {
			single++
		}
	}
	// Long tail: many singletons AND a giant several decades larger.
	if single < n/10 {
		t.Errorf("only %d/%d single-router ASes", single, n)
	}
	if largest < 100 {
		t.Errorf("largest AS has %d routers; tail too short", largest)
	}
}

func TestTier1Worldwide(t *testing.T) {
	in := buildSmall(t)
	for _, as := range in.ASes {
		if as.Type != Tier1 {
			continue
		}
		var pts []geo.Point
		for _, pi := range as.Places {
			pts = append(pts, in.World.Places[pi].Loc)
		}
		area := geo.HullArea(geo.WorldAlbers(), pts)
		// A worldwide backbone should span a hull of at least ~10M sq
		// miles (Figure 9(a)'s x-axis reaches 1.6e8).
		if area < 1e7 {
			t.Errorf("tier-1 AS %d hull = %.2g sq mi; not worldwide", as.Number, area)
		}
	}
}

func TestInterdomainLinksLongerOnAverage(t *testing.T) {
	in := buildSmall(t)
	var intra, inter, nIntra, nInter float64
	for _, l := range in.Links {
		if l.Inter {
			inter += l.LengthMi
			nInter++
		} else {
			intra += l.LengthMi
			nIntra++
		}
	}
	if nInter == 0 || nIntra == 0 {
		t.Fatal("missing link class")
	}
	mi, mx := intra/nIntra, inter/nInter
	if mx < mi*1.3 {
		t.Errorf("interdomain mean %f not substantially longer than intradomain %f", mx, mi)
	}
	if frac := nIntra / (nIntra + nInter); frac < 0.7 {
		t.Errorf("intradomain fraction = %v, want > 0.7 (paper: >80%%)", frac)
	}
}

func TestMonitorsPlaced(t *testing.T) {
	in := buildSmall(t)
	if len(in.SkitterMonitors) != 19 {
		t.Errorf("monitors = %d, want 19", len(in.SkitterMonitors))
	}
	seen := map[RouterID]bool{}
	for _, m := range in.SkitterMonitors {
		if seen[m] {
			t.Error("duplicate monitor router")
		}
		seen[m] = true
	}
	if in.MercatorHost < 0 || int(in.MercatorHost) >= len(in.Routers) {
		t.Errorf("invalid mercator host %d", in.MercatorHost)
	}
}

func TestPrefix24RouterCoversAllocatedSpace(t *testing.T) {
	in := buildSmall(t)
	for _, as := range in.ASes {
		for _, p := range as.Prefixes {
			size := uint32(1) << (32 - uint(p.Len))
			for base := p.Addr; base < p.Addr+size; base += 256 {
				if _, ok := in.Prefix24Router[base]; !ok {
					t.Fatalf("/24 at %d of AS %d has no home router", base, as.Number)
				}
			}
		}
	}
}

func TestPeerIface(t *testing.T) {
	in := buildSmall(t)
	l := in.Links[0]
	if in.PeerIface(l.A) != l.B || in.PeerIface(l.B) != l.A {
		t.Error("PeerIface does not invert across a link")
	}
}

func TestRouterLocationsNearTheirPlace(t *testing.T) {
	in := buildSmall(t)
	for _, r := range in.Routers {
		d := geo.DistanceMiles(r.Loc, in.World.Places[r.Place].Loc)
		if d > 13 {
			t.Fatalf("router %d is %f mi from its place; jitter cap broken", r.ID, d)
		}
	}
}

func TestUSInterfaceShareDominates(t *testing.T) {
	in := buildSmall(t)
	counts := map[population.EconRegion]int{}
	for _, ifc := range in.Ifaces {
		r := in.Routers[ifc.Router]
		counts[in.World.Places[r.Place].Econ]++
	}
	us := float64(counts[population.EconUSA])
	total := float64(len(in.Ifaces))
	// Paper: USA holds 282k of 563k interfaces (~50%).
	if us/total < 0.3 || us/total > 0.7 {
		t.Errorf("US interface share = %v, want ~0.5", us/total)
	}
	if counts[population.EconAfrica] >= counts[population.EconWesternEurope] {
		t.Error("Africa should have far fewer interfaces than W. Europe")
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	bad := func(name string, mutate func(*Config)) {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
	bad("zero scale", func(c *Config) { c.Scale = 0 })
	bad("negative extra links", func(c *Config) { c.MeanExtraLinksPerRouter = -1 })
	bad("fraction above 1", func(c *Config) { c.DistanceIndependentFraction = 1.5 })
	bad("negative fault prob", func(c *Config) { c.BrokenAliasProb = -0.1 })
	bad("zero decay", func(c *Config) { c.DecayMiles[population.EconUSA] = 0 })
	bad("negative monitors", func(c *Config) { c.NumSkitterMonitors = -3 })
	bad("negative AS factor", func(c *Config) { c.ASCountFactor = -2 })
	// Zero-value sentinels for the ablation knobs are "default", not
	// errors.
	ok := DefaultConfig()
	ok.ASCountFactor = 0
	ok.NumSkitterMonitors = 0
	if err := ok.Validate(); err != nil {
		t.Errorf("sentinel zeroes must validate: %v", err)
	}
}

// ablationWorld builds a small internet with one knob changed from the
// shared baseline config.
func ablationWorld(tb testing.TB, mutate func(*Config)) *Internet {
	tb.Helper()
	world := population.Build(population.DefaultConfig(), rng.New(1))
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	if mutate != nil {
		mutate(&cfg)
	}
	return Build(cfg, world)
}

func TestASCountFactorReshapesASes(t *testing.T) {
	base := buildSmall(t)
	identity := ablationWorld(t, func(c *Config) { c.ASCountFactor = 1 })
	if len(identity.ASes) != len(base.ASes) || len(identity.Routers) != len(base.Routers) {
		t.Fatalf("factor 1 must reproduce the default: %d/%d ASes, %d/%d routers",
			len(identity.ASes), len(base.ASes), len(identity.Routers), len(base.Routers))
	}
	split := ablationWorld(t, func(c *Config) { c.ASCountFactor = 4 })
	if len(split.ASes) <= len(base.ASes) {
		t.Errorf("factor 4 should create more ASes: %d vs %d", len(split.ASes), len(base.ASes))
	}
	// The router budget is unchanged within a generous band (sizes are
	// drawn stochastically against the same budget).
	ratio := float64(len(split.Routers)) / float64(len(base.Routers))
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("routers moved too much under AS split: %d vs %d", len(split.Routers), len(base.Routers))
	}
}

func TestUniformPlacementFlattensConcentration(t *testing.T) {
	base := buildSmall(t)
	uni := ablationWorld(t, func(c *Config) { c.UniformPlacement = true })
	// Concentration metric: share of routers in the most popular
	// places. Under the population kernel routers pile into metros;
	// uniform placement must spread them across far more places.
	topShare := func(in *Internet) float64 {
		counts := map[int]int{}
		for _, r := range in.Routers {
			counts[r.Place]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(in.Routers))
	}
	bs, us := topShare(base), topShare(uni)
	if us >= bs {
		t.Errorf("uniform placement should flatten the busiest place: top share %.4f (uniform) vs %.4f (default)", us, bs)
	}
	distinct := func(in *Internet) int {
		seen := map[int]bool{}
		for _, r := range in.Routers {
			seen[r.Place] = true
		}
		return len(seen)
	}
	if distinct(uni) <= distinct(base) {
		t.Errorf("uniform placement should occupy more distinct places: %d vs %d", distinct(uni), distinct(base))
	}
}

func TestMonitorCountKnob(t *testing.T) {
	nine := ablationWorld(t, func(c *Config) { c.NumSkitterMonitors = 9 })
	if len(nine.SkitterMonitors) != 9 {
		t.Errorf("got %d monitors, want 9", len(nine.SkitterMonitors))
	}
}
