package tracer

import (
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/population"
	"geonet/internal/rng"
)

var (
	tIn  *netgen.Internet
	tNet *netsim.Network
)

func fixture(tb testing.TB) (*netgen.Internet, *netsim.Network) {
	tb.Helper()
	if tIn == nil {
		world := population.Build(rng.New(1))
		cfg := netgen.DefaultConfig()
		cfg.Scale = 0.02
		tIn = netgen.Build(cfg, world)
		tNet = netsim.Compile(tIn)
	}
	return tIn, tNet
}

// anyIfaceIP returns a public interface address on a responsive router.
func anyIfaceIP(in *netgen.Internet, skip int) uint32 {
	n := 0
	for _, ifc := range in.Ifaces {
		if ifc.Private || ifc.IP == 0 || ifc.Link == netgen.None {
			continue
		}
		if in.Routers[ifc.Router].Unresponsive {
			continue
		}
		if n == skip {
			return ifc.IP
		}
		n++
	}
	return 0
}

func TestTraceReachesInterfaceDestination(t *testing.T) {
	in, net := fixture(t)
	s := rng.New(2)
	var sc Scratch
	opts := DefaultOptions()
	opts.HopLossProb = 0 // deterministic for this test
	reachedCount := 0
	for i := 0; i < 50; i++ {
		dst := anyIfaceIP(in, i*37)
		if dst == 0 {
			continue
		}
		obs, reached := sc.Trace(net, in.SkitterMonitors[0], dst, opts, s)
		if !reached {
			continue
		}
		reachedCount++
		if len(obs) == 0 {
			t.Fatal("reached with no observations")
		}
		last := obs[len(obs)-1]
		if last.IP != dst || !last.Responded {
			t.Fatalf("final observation = %+v, want destination %d", last, dst)
		}
	}
	if reachedCount < 40 {
		t.Errorf("only %d/50 traces reached", reachedCount)
	}
}

func TestTraceFirstHopIsMonitorGateway(t *testing.T) {
	in, net := fixture(t)
	s := rng.New(3)
	var sc Scratch
	monitor := in.SkitterMonitors[0]
	dst := anyIfaceIP(in, 500)
	obs, _ := sc.Trace(net, monitor, dst, DefaultOptions(), s)
	if len(obs) == 0 {
		t.Skip("trace failed")
	}
	// First hop address must belong to the monitor's gateway router.
	ifid, ok := in.ByIP[obs[0].IP]
	if !ok {
		t.Fatalf("first hop %d not a known interface", obs[0].IP)
	}
	if in.Ifaces[ifid].Router != monitor {
		t.Errorf("first hop belongs to router %d, want monitor %d",
			in.Ifaces[ifid].Router, monitor)
	}
	if in.Ifaces[ifid].Link != netgen.None {
		t.Error("first hop should be the host-facing stub interface")
	}
}

func TestTraceObservesInboundInterfaces(t *testing.T) {
	in, net := fixture(t)
	s := rng.New(4)
	var sc Scratch
	opts := DefaultOptions()
	opts.HopLossProb = 0
	opts.HostRespondProb = 1
	dst := anyIfaceIP(in, 1200)
	obs, reached := sc.Trace(net, in.SkitterMonitors[1], dst, opts, s)
	if !reached || len(obs) < 3 {
		t.Skip("need a multi-hop reached trace")
	}
	// Every intermediate observed IP must be an interface of the
	// router at that position, reached from the previous router.
	for i := 1; i < len(obs)-1; i++ {
		if !obs[i].Responded {
			continue
		}
		ifid, ok := in.ByIP[obs[i].IP]
		if !ok {
			t.Fatalf("hop %d: %d not an interface", i, obs[i].IP)
		}
		peer := in.PeerIface(ifid)
		if peer == netgen.None {
			t.Fatalf("hop %d: observed a stub interface mid-path", i)
		}
	}
}

func TestUnresponsiveRoutersProduceGaps(t *testing.T) {
	in, net := fixture(t)
	s := rng.New(5)
	var sc Scratch
	opts := DefaultOptions()
	opts.HopLossProb = 0
	sawGap := false
	for i := 0; i < 400 && !sawGap; i++ {
		dst := anyIfaceIP(in, i*13)
		obs, _ := sc.Trace(net, in.SkitterMonitors[i%len(in.SkitterMonitors)], dst, opts, s)
		for _, o := range obs {
			if !o.Responded {
				sawGap = true
				break
			}
		}
	}
	if !sawGap {
		t.Error("no unresponsive hops in 400 traces despite 3% unresponsive routers")
	}
}

func TestLinksSkipGapsAndSelfLoops(t *testing.T) {
	obs := []Observation{
		{IP: 1, Responded: true},
		{IP: 2, Responded: true},
		{IP: 3, Responded: false}, // gap
		{IP: 4, Responded: true},
		{IP: 4, Responded: true}, // self-loop anomaly
		{IP: 5, Responded: true},
	}
	links := new(Scratch).Links(obs)
	want := map[[2]uint32]bool{{1, 2}: true, {4, 5}: true}
	if len(links) != len(want) {
		t.Fatalf("links = %v, want 2 links", links)
	}
	for _, l := range links {
		if !want[l] {
			t.Errorf("unexpected link %v", l)
		}
	}
}

func TestLinksCanonicalOrder(t *testing.T) {
	obs := []Observation{
		{IP: 9, Responded: true},
		{IP: 2, Responded: true},
	}
	links := new(Scratch).Links(obs)
	if len(links) != 1 || links[0] != [2]uint32{2, 9} {
		t.Errorf("links = %v, want [[2 9]]", links)
	}
}

func TestTraceVia(t *testing.T) {
	in, net := fixture(t)
	s := rng.New(6)
	var sc Scratch
	opts := DefaultOptions()
	opts.HopLossProb = 0
	host := in.MercatorHost
	via := netgen.RouterID(len(in.Routers) / 3)
	dst := anyIfaceIP(in, 2000)
	obs, reached := sc.TraceVia(net, host, via, dst, opts, s)
	if !reached {
		t.Skip("LSR trace failed")
	}
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	if obs[len(obs)-1].IP != dst {
		t.Errorf("LSR trace final hop = %d, want %d", obs[len(obs)-1].IP, dst)
	}
}

func TestTraceUnallocatedDestination(t *testing.T) {
	_, net := fixture(t)
	s := rng.New(7)
	var sc Scratch
	obs, reached := sc.Trace(net, tIn.SkitterMonitors[0], 0xDF000001, DefaultOptions(), s)
	if obs != nil || reached {
		t.Error("unallocated destination should yield no trace")
	}
}

func TestMaxTTLTruncates(t *testing.T) {
	in, net := fixture(t)
	s := rng.New(8)
	var sc Scratch
	opts := DefaultOptions()
	opts.MaxTTL = 2
	dst := anyIfaceIP(in, 3000)
	obs, reached := sc.Trace(net, in.SkitterMonitors[0], dst, opts, s)
	if len(obs) > 2 {
		t.Errorf("trace exceeded MaxTTL: %d hops", len(obs))
	}
	_ = reached
}
