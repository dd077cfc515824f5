// Package tracer is the hop-limited probing engine shared by the
// Skitter and Mercator collectors. It turns a simulated forwarding path
// into the sequence of ICMP Time Exceeded observations a real
// traceroute sees: one response per TTL, sourced from the interface the
// probe entered each router by, with unresponsive routers and per-hop
// loss producing the familiar "*" gaps.
package tracer

import (
	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/rng"
)

// Options tunes probe behaviour.
type Options struct {
	// HopLossProb is the per-hop chance a response is lost even from a
	// responsive router (rate limiting, queue drops).
	HopLossProb float64
	// HostRespondProb is the chance a probed end host answers at all.
	HostRespondProb float64
	// MaxTTL bounds the probe (real traceroutes stop at 30-64).
	MaxTTL int
}

// DefaultOptions mirrors Skitter-era probing behaviour.
func DefaultOptions() Options {
	return Options{HopLossProb: 0.01, HostRespondProb: 0.7, MaxTTL: 64}
}

// Observation is one TTL's result.
type Observation struct {
	IP        uint32
	Responded bool
}

// Scratch holds the per-probe working buffers (forwarding path,
// observation list, link pairs) so a driver tracing in a loop reuses
// one set of allocations across its whole sweep. The zero value is
// ready to use; a Scratch must not be shared between concurrent
// probes. Results returned by its methods alias the scratch and are
// valid until the next call on the same Scratch.
type Scratch struct {
	path  []netsim.Hop
	obs   []Observation
	links [][2]uint32
}

// Trace runs a full hop-limited probe sequence from the monitor
// attached to src toward dstIP. The first observation is the monitor's
// gateway (src itself, seen via its host-facing stub interface); the
// last, when the destination answers, is the destination address
// itself. reached reports whether forwarding got all the way there.
func (sc *Scratch) Trace(net *netsim.Network, src netgen.RouterID, dstIP uint32, opts Options, s *rng.Stream) (obs []Observation, reached bool) {
	path, dstRouter, ok := net.AppendPathToIP(sc.path[:0], src, dstIP)
	sc.path = path
	if dstRouter == netgen.None {
		return nil, false
	}
	return sc.observe(net, path, ok, src, dstIP, dstRouter, opts, s)
}

// TraceVia runs a loose-source-routed probe through the via router.
func (sc *Scratch) TraceVia(net *netsim.Network, src, via netgen.RouterID, dstIP uint32, opts Options, s *rng.Stream) (obs []Observation, reached bool) {
	dstRouter, ok := net.LookupDest(dstIP)
	if !ok {
		return nil, false
	}
	path, ok := net.AppendPathVia(sc.path[:0], src, via, dstRouter)
	sc.path = path
	return sc.observe(net, path, ok, src, dstIP, dstRouter, opts, s)
}

func (sc *Scratch) observe(net *netsim.Network, path []netsim.Hop, pathOK bool,
	src netgen.RouterID, dstIP uint32, dstRouter netgen.RouterID,
	opts Options, s *rng.Stream) ([]Observation, bool) {

	in := net.In
	if opts.MaxTTL > 0 && len(path) > opts.MaxTTL {
		path = path[:opts.MaxTTL]
		pathOK = false
	}
	// When the destination address is an interface of the final
	// router, the final TTL's probe is answered by the destination
	// itself (echo reply) instead of a Time Exceeded from the inbound
	// interface — so that hop is *replaced*, not appended.
	dstIfid, dstIsIface := in.ByIP[dstIP]
	dstOnFinalRouter := pathOK && dstIsIface && in.Ifaces[dstIfid].Router == dstRouter

	if sc.obs == nil {
		sc.obs = make([]Observation, 0, len(path)+1)
	}
	obs := sc.obs[:0]
	for i, hop := range path {
		if dstOnFinalRouter && i == len(path)-1 {
			break // the echo reply below stands in for this TTL
		}
		r := &in.Routers[hop.Router]
		var ip uint32
		if i == 0 {
			// TTL=1 expires at the gateway: the reply comes from the
			// interface facing the monitor host (the stub).
			ip = stubIfaceIP(in, src)
		} else {
			ip = in.Ifaces[hop.InIface].IP
		}
		responded := !r.Unresponsive && !s.Bool(opts.HopLossProb) && ip != 0
		obs = append(obs, Observation{IP: ip, Responded: responded})
	}
	if !pathOK {
		sc.obs = obs
		return obs, false
	}
	// The destination answers: an interface address replies itself; a
	// plain host address replies only if the host is up.
	if dstOnFinalRouter {
		if !in.Routers[dstRouter].Unresponsive {
			obs = append(obs, Observation{IP: dstIP, Responded: true})
		}
	} else if !dstIsIface && s.Bool(opts.HostRespondProb) {
		obs = append(obs, Observation{IP: dstIP, Responded: true})
	}
	sc.obs = obs
	return obs, true
}

// stubIfaceIP finds the router's host-facing stub interface address.
func stubIfaceIP(in *netgen.Internet, r netgen.RouterID) uint32 {
	for _, ifid := range in.Routers[r].Ifaces {
		if in.Ifaces[ifid].Link == netgen.None {
			return in.Ifaces[ifid].IP
		}
	}
	// No stub (not a monitor router): fall back to the canonical
	// address, as a router sourcing its own probes would.
	return in.Routers[r].CanonicalIP
}

// Links extracts the interface-adjacency pairs a collector records from
// one trace: consecutive responding observations. Gaps ("*") break the
// chain, and self-pairs (identical addresses back to back) are
// discarded as anomalies, per Section III-A.
func (sc *Scratch) Links(obs []Observation) [][2]uint32 {
	out := sc.links[:0]
	for i := 1; i < len(obs); i++ {
		a, b := obs[i-1], obs[i]
		if !a.Responded || !b.Responded {
			continue
		}
		if a.IP == b.IP {
			continue // self-loop anomaly
		}
		out = append(out, orderPair(a.IP, b.IP))
	}
	sc.links = out
	return out
}

func orderPair(a, b uint32) [2]uint32 {
	if a < b {
		return [2]uint32{a, b}
	}
	return [2]uint32{b, a}
}
