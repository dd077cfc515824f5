package skitter

import (
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/population"
	"geonet/internal/rng"
)

var (
	sIn  *netgen.Internet
	sNet *netsim.Network
	sRaw *RawGraph
)

func fixture(tb testing.TB) (*netgen.Internet, *RawGraph) {
	tb.Helper()
	if sRaw == nil {
		world := population.Build(rng.New(1))
		cfg := netgen.DefaultConfig()
		cfg.Scale = 0.02
		sIn = netgen.Build(cfg, world)
		sNet = netsim.Compile(sIn)
		sRaw = Collect(sNet, rng.New(11))
	}
	return sIn, sRaw
}

func TestCollectDiscoversSubstantialGraph(t *testing.T) {
	in, raw := fixture(t)
	if raw.Stats.Traces == 0 {
		t.Fatal("no traces run")
	}
	// Discovery should find a large share of ground-truth interfaces
	// (union over 19 monitors covers the core well).
	found := 0
	for _, ifc := range in.Ifaces {
		if ifc.IP == 0 {
			continue
		}
		if _, ok := raw.Nodes[ifc.IP]; ok {
			found++
		}
	}
	frac := float64(found) / float64(len(in.Ifaces))
	if frac < 0.25 {
		t.Errorf("discovered only %.1f%% of ground-truth interfaces", frac*100)
	}
	if len(raw.Links) == 0 {
		t.Fatal("no links discovered")
	}
	// Links-to-nodes ratio should resemble the paper's Skitter data
	// (1,075,454 links / 704,107 interfaces ~= 1.5).
	ratio := float64(len(raw.Links)) / float64(len(raw.Nodes))
	if ratio < 0.7 || ratio > 2.5 {
		t.Errorf("links/nodes = %.2f, want ~1-2", ratio)
	}
}

func TestAllDiscoveredLinksAreReal(t *testing.T) {
	in, raw := fixture(t)
	// Every discovered link must correspond to a ground-truth
	// adjacency: the two interfaces' routers share a physical link.
	adjacent := func(a, b netgen.RouterID) bool {
		for _, ifid := range in.Routers[a].Ifaces {
			peer := in.PeerIface(ifid)
			if peer != netgen.None && in.Ifaces[peer].Router == b {
				return true
			}
		}
		return false
	}
	checked := 0
	for l := range raw.Links {
		ia, okA := in.ByIP[l[0]]
		ib, okB := in.ByIP[l[1]]
		if !okA || !okB {
			// One endpoint is an end host (destination address):
			// hosts attach to their /24's home router, so no router
			// adjacency to verify.
			continue
		}
		ra, rb := in.Ifaces[ia].Router, in.Ifaces[ib].Router
		if ra == rb {
			t.Fatalf("link %v connects two interfaces of router %d", l, ra)
		}
		if !adjacent(ra, rb) {
			t.Fatalf("discovered link %v has no ground-truth adjacency", l)
		}
		checked++
		if checked > 3000 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no verifiable links")
	}
}

func TestDestListTracked(t *testing.T) {
	_, raw := fixture(t)
	if len(raw.DestIPs) == 0 {
		t.Fatal("no destinations recorded")
	}
	// A notable share of observed nodes are destination-list entries
	// (end hosts) — the paper discarded 18% for this reason.
	inDest := 0
	for ip := range raw.Nodes {
		if _, ok := raw.DestIPs[ip]; ok {
			inDest++
		}
	}
	frac := float64(inDest) / float64(len(raw.Nodes))
	if frac < 0.02 || frac > 0.6 {
		t.Errorf("destination-list share of nodes = %.1f%%, want a notable minority", frac*100)
	}
}

func TestCollectDeterministic(t *testing.T) {
	in, _ := fixture(t)
	a := Collect(sNet, rng.New(42))
	b := Collect(sNet, rng.New(42))
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		t.Errorf("same seed produced different graphs: %d/%d vs %d/%d",
			len(a.Nodes), len(a.Links), len(b.Nodes), len(b.Links))
	}
	_ = in
}

func TestMonitorsContribute(t *testing.T) {
	_, raw := fixture(t)
	if raw.Stats.Monitors != 19 {
		t.Errorf("monitors = %d, want 19", raw.Stats.Monitors)
	}
	if raw.Stats.Traces < raw.Stats.Monitors*100 {
		t.Errorf("only %d traces across %d monitors", raw.Stats.Traces, raw.Stats.Monitors)
	}
}
