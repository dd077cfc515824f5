package netsim

import (
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/population"
	"geonet/internal/rng"
)

var (
	testNet  *Network
	testGen  *netgen.Internet
	testOnce bool
)

func compileSmall(tb testing.TB) (*netgen.Internet, *Network) {
	tb.Helper()
	if !testOnce {
		world := population.Build(rng.New(1))
		cfg := netgen.DefaultConfig()
		cfg.Scale = 0.02
		testGen = netgen.Build(cfg, world)
		testNet = Compile(testGen)
		testOnce = true
	}
	return testGen, testNet
}

func TestPathReachesDestination(t *testing.T) {
	in, net := compileSmall(t)
	s := rng.New(3)
	okCount, total := 0, 400
	for i := 0; i < total; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		path, ok := net.AppendPath(nil, src, dst)
		if !ok {
			continue
		}
		okCount++
		if path[0].Router != src {
			t.Fatalf("path starts at %d, want %d", path[0].Router, src)
		}
		if path[len(path)-1].Router != dst {
			t.Fatalf("path ends at %d, want %d", path[len(path)-1].Router, dst)
		}
	}
	// The AS graph is connected, so virtually all pairs must route.
	if okCount < total*95/100 {
		t.Errorf("only %d/%d pairs routed", okCount, total)
	}
}

func TestPathHopsAreAdjacent(t *testing.T) {
	in, net := compileSmall(t)
	s := rng.New(4)
	for i := 0; i < 100; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		path, ok := net.AppendPath(nil, src, dst)
		if !ok {
			continue
		}
		for h := 1; h < len(path); h++ {
			hop := path[h]
			// The inbound interface must belong to the hop router and
			// its link must lead back to the previous router.
			ifc := in.Ifaces[hop.InIface]
			if ifc.Router != hop.Router {
				t.Fatalf("hop %d: inbound iface belongs to router %d, hop router %d",
					h, ifc.Router, hop.Router)
			}
			peer := in.PeerIface(hop.InIface)
			if peer == netgen.None || in.Ifaces[peer].Router != path[h-1].Router {
				t.Fatalf("hop %d: inbound iface not connected to previous router", h)
			}
		}
	}
}

func TestPathDeterministic(t *testing.T) {
	in, net := compileSmall(t)
	s := rng.New(5)
	for i := 0; i < 50; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		p1, ok1 := net.AppendPath(nil, src, dst)
		p2, ok2 := net.AppendPath(nil, src, dst)
		if ok1 != ok2 || len(p1) != len(p2) {
			t.Fatalf("non-deterministic path for %d->%d", src, dst)
		}
		for h := range p1 {
			if p1[h] != p2[h] {
				t.Fatalf("path differs at hop %d", h)
			}
		}
	}
}

func TestPathSelfIsTrivial(t *testing.T) {
	in, net := compileSmall(t)
	r := netgen.RouterID(len(in.Routers) / 2)
	path, ok := net.AppendPath(nil, r, r)
	if !ok || len(path) != 1 || path[0].Router != r {
		t.Errorf("self path = %v ok=%v", path, ok)
	}
}

func TestIntraASPathStaysInside(t *testing.T) {
	in, net := compileSmall(t)
	// Find a reasonably large AS and route between two of its routers:
	// the path must never leave the AS (intra-AS shortest-path
	// forwarding is purely internal).
	for _, as := range in.ASes {
		if len(as.Routers) < 30 {
			continue
		}
		src, dst := as.Routers[0], as.Routers[len(as.Routers)-1]
		path, ok := net.AppendPath(nil, src, dst)
		if !ok {
			t.Fatalf("no intra-AS path in AS %d", as.Number)
		}
		for _, h := range path {
			if in.Routers[h.Router].AS != as.ID {
				t.Fatalf("intra-AS path left the AS at router %d", h.Router)
			}
		}
		return
	}
	t.Skip("no large AS found")
}

func TestInterASPathCrossesSensibly(t *testing.T) {
	in, net := compileSmall(t)
	s := rng.New(6)
	checked := 0
	for i := 0; i < 400 && checked < 50; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		if in.Routers[src].AS == in.Routers[dst].AS {
			continue
		}
		path, ok := net.AppendPath(nil, src, dst)
		if !ok {
			continue
		}
		checked++
		// AS sequence along the path must have no repeats (valley-free
		// not modelled, but loop-free at AS level is required).
		seen := map[netgen.ASID]bool{}
		last := netgen.ASID(netgen.None)
		for _, h := range path {
			as := in.Routers[h.Router].AS
			if as != last {
				if seen[as] {
					t.Fatalf("AS-level loop: AS %d revisited", as)
				}
				seen[as] = true
				last = as
			}
		}
	}
	if checked == 0 {
		t.Fatal("no inter-AS pairs sampled")
	}
}

func TestNextASProperties(t *testing.T) {
	in, net := compileSmall(t)
	// For direct neighbours the next AS is the neighbour itself.
	for _, as := range in.ASes[:10] {
		for _, nb := range as.Neighbors {
			if got := net.NextAS(as.ID, nb); got != nb {
				t.Fatalf("NextAS(%d,%d) = %d, want the neighbour", as.ID, nb, got)
			}
		}
	}
	if got := net.NextAS(3, 3); got != 3 {
		t.Errorf("NextAS(x,x) = %d, want x", got)
	}
}

func TestLookupDest(t *testing.T) {
	in, net := compileSmall(t)
	// An interface address resolves to its own router.
	var ifc netgen.Iface
	for _, c := range in.Ifaces {
		if !c.Private && c.IP != 0 {
			ifc = c
			break
		}
	}
	r, ok := net.LookupDest(ifc.IP)
	if !ok || r != ifc.Router {
		t.Errorf("LookupDest(iface) = %d,%v, want %d", r, ok, ifc.Router)
	}
	// A host address inside the same /24 resolves to some router.
	host := (ifc.IP &^ 0xff) | 250
	if _, isIface := in.ByIP[host]; !isIface {
		if _, ok := net.LookupDest(host); !ok {
			t.Error("host address in allocated /24 did not resolve")
		}
	}
	// Unallocated space does not resolve.
	if _, ok := net.LookupDest(0xDF000001); ok {
		t.Error("unallocated address resolved")
	}
}

func TestPathVia(t *testing.T) {
	in, net := compileSmall(t)
	s := rng.New(7)
	for i := 0; i < 50; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		via := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		path, ok := net.AppendPathVia(nil, src, via, dst)
		if !ok {
			continue
		}
		foundVia := false
		for _, h := range path {
			if h.Router == via {
				foundVia = true
			}
		}
		if !foundVia {
			t.Fatalf("source-routed path misses via router")
		}
		if path[len(path)-1].Router != dst {
			t.Fatalf("source-routed path misses destination")
		}
	}
}

func TestAliasReplySemantics(t *testing.T) {
	in, net := compileSmall(t)
	canonical, broken, silent := 0, 0, 0
	for _, ifc := range in.Ifaces {
		if ifc.IP == 0 || ifc.Private {
			continue
		}
		r := in.Routers[ifc.Router]
		reply, ok := net.AliasReply(ifc.IP)
		as := in.ASes[r.AS]
		switch {
		case r.Unresponsive || as.IDSBlocks:
			if ok {
				t.Fatalf("iface %d should not reply to alias probe", ifc.ID)
			}
			silent++
		case r.BrokenAlias:
			if !ok || reply != ifc.IP {
				t.Fatalf("broken-alias router must reply from probed iface")
			}
			broken++
		default:
			if !ok || reply != r.CanonicalIP {
				t.Fatalf("iface %d alias reply = %d, want canonical %d", ifc.ID, reply, r.CanonicalIP)
			}
			canonical++
		}
	}
	if canonical == 0 || broken == 0 || silent == 0 {
		t.Errorf("alias behaviours not all exercised: canonical=%d broken=%d silent=%d",
			canonical, broken, silent)
	}
}

func TestAliasReplyUnknownIP(t *testing.T) {
	_, net := compileSmall(t)
	if _, ok := net.AliasReply(0xDEAD0001); ok {
		t.Error("unknown IP replied to alias probe")
	}
}

func TestCacheEviction(t *testing.T) {
	in, _ := compileSmall(t)
	// Small budget forces eviction; paths must stay correct after.
	net2 := Compile(in)
	net2.CacheBudget = 8
	s := rng.New(8)
	for i := 0; i < 200; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		path, ok := net2.AppendPath(nil, src, dst)
		if ok && path[len(path)-1].Router != dst {
			t.Fatal("path wrong after cache eviction")
		}
	}
}
