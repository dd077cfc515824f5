package mercator

import (
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/population"
	"geonet/internal/rng"
)

var (
	mIn  *netgen.Internet
	mNet *netsim.Network
	mRes *Result
)

func fixture(tb testing.TB) (*netgen.Internet, *Result) {
	tb.Helper()
	if mRes == nil {
		world := population.Build(rng.New(1))
		cfg := netgen.DefaultConfig()
		cfg.Scale = 0.02
		mIn = netgen.Build(cfg, world)
		mNet = netsim.Compile(mIn)
		mRes = Collect(mNet, rng.New(21))
	}
	return mIn, mRes
}

func TestDiscoveryProducesGraph(t *testing.T) {
	_, res := fixture(t)
	if len(res.IfaceNodes) == 0 || len(res.IfaceLinks) == 0 {
		t.Fatalf("empty discovery: %d nodes, %d links", len(res.IfaceNodes), len(res.IfaceLinks))
	}
	if res.Stats.LSRTraces == 0 {
		t.Error("no loose-source-routed probes issued")
	}
	if len(res.RouterNodes) == 0 || len(res.RouterNodes) > len(res.IfaceNodes) {
		t.Errorf("router collapse wrong: %d routers from %d interfaces",
			len(res.RouterNodes), len(res.IfaceNodes))
	}
}

func TestAliasResolutionCollapsesInterfaces(t *testing.T) {
	in, res := fixture(t)
	// The paper: 268,382 interfaces collapsed to 228,263 routers
	// (~15%). Our IDS/broken-alias rates should produce a meaningful
	// but partial collapse.
	collapse := 1 - float64(len(res.RouterNodes))/float64(len(res.IfaceNodes))
	if collapse <= 0.01 {
		t.Errorf("alias resolution collapsed only %.1f%%", collapse*100)
	}
	if collapse > 0.6 {
		t.Errorf("alias resolution collapsed %.1f%%; implausibly high", collapse*100)
	}
	// Every alias group must be interfaces of one ground-truth router.
	groups := map[uint32]map[netgen.RouterID]bool{}
	for ip, canon := range res.Alias {
		ifid, ok := in.ByIP[ip]
		if !ok {
			continue // end-host destination
		}
		if groups[canon] == nil {
			groups[canon] = map[netgen.RouterID]bool{}
		}
		groups[canon][in.Ifaces[ifid].Router] = true
	}
	multi := 0
	for canon, routers := range groups {
		if len(routers) > 1 {
			t.Fatalf("alias group %d mixes %d routers", canon, len(routers))
		}
		if len(routers) == 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no alias groups verified")
	}
}

func TestAliasTableCoversAllNodes(t *testing.T) {
	_, res := fixture(t)
	for ip := range res.IfaceNodes {
		if _, ok := res.Alias[ip]; !ok {
			t.Fatalf("interface %d missing from alias table", ip)
		}
	}
}

func TestRouterLinksHaveNoSelfLoops(t *testing.T) {
	_, res := fixture(t)
	for l := range res.RouterLinks {
		if l[0] == l[1] {
			t.Fatalf("self-loop in router graph: %v", l)
		}
	}
	// Collapsing cannot create links: router links <= iface links.
	if len(res.RouterLinks) > len(res.IfaceLinks) {
		t.Error("router links exceed interface links")
	}
}

func TestMercatorSmallerThanGroundTruth(t *testing.T) {
	in, res := fixture(t)
	total := 0
	for _, ifc := range in.Ifaces {
		if ifc.IP != 0 {
			total++
		}
	}
	frac := float64(len(res.IfaceNodes)) / float64(total)
	if frac < 0.10 {
		t.Errorf("Mercator found only %.1f%% of interfaces; budget too small", frac*100)
	}
	if frac > 0.95 {
		t.Errorf("Mercator found %.1f%% of interfaces; should be partial like the real tool", frac*100)
	}
}

func TestCollectDeterministic(t *testing.T) {
	fixture(t)
	a := Collect(mNet, rng.New(5))
	b := Collect(mNet, rng.New(5))
	if len(a.IfaceNodes) != len(b.IfaceNodes) || len(a.RouterLinks) != len(b.RouterLinks) {
		t.Error("same seed produced different discoveries")
	}
}
