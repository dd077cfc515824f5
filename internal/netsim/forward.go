package netsim

import "geonet/internal/netgen"

// Hop is one step of a forwarding path: the router reached and the
// interface the packet entered it by. The entry interface is what an
// expiring probe's ICMP Time Exceeded reply is sourced from — the
// reason traceroute maps interfaces rather than routers.
type Hop struct {
	Router  netgen.RouterID
	InIface netgen.IfaceID // None at the originating router
}

// maxSteps bounds a forwarding walk; anything longer indicates a
// routing loop and the walk is reported as failed.
const maxSteps = 96

// Path computes the router-level forwarding path from src to dst. The
// first hop is src itself (InIface None). ok is false when no route
// exists or a loop guard triggers.
func (n *Network) Path(src, dst netgen.RouterID) ([]Hop, bool) {
	return n.AppendPath(make([]Hop, 0, 16), src, dst)
}

// AppendPath is Path with caller-owned storage: hops are appended to
// path (which may be nil or a recycled buffer sliced to length 0) and
// the possibly-regrown slice is returned, so tight probe loops reuse
// one buffer instead of allocating per trace.
func (n *Network) AppendPath(path []Hop, src, dst netgen.RouterID) ([]Hop, bool) {
	return n.walk(path, src, dst, false)
}

// walk appends the forwarding path from src to dst. When cont is true
// the walk continues an existing path whose last hop is already src
// (loose-source-routing legs), so the starting hop is not re-appended;
// the loop guard still counts it.
//
// Table lookups are hoisted out of the per-hop loop: within one AS
// segment every hop consults the same memoised table, so the walk
// fetches it once per segment instead of once per hop. The hop
// sequence is identical to the hop-at-a-time walk it replaced.
func (n *Network) walk(path []Hop, src, dst netgen.RouterID, cont bool) ([]Hop, bool) {
	if !cont {
		path = append(path, Hop{Router: src, InIface: netgen.None})
	}
	steps := 1 // hops walked this leg, counting src
	cur := src
	dstAS := n.In.Routers[dst].AS
	for cur != dst {
		curAS := n.In.Routers[cur].AS
		if curAS == dstAS {
			// Terminal segment: shortest path inside dst's AS.
			t := n.intraNext(dst)
			base := n.asBase[curAS]
			for cur != dst {
				if steps > maxSteps {
					return path, false
				}
				nh := t[int32(cur)-base]
				if nh == netgen.None {
					return path, false
				}
				e := n.findIntraEdge(cur, netgen.RouterID(nh))
				if e == nil {
					return path, false
				}
				path = append(path, Hop{Router: e.peer, InIface: e.peerIface})
				steps++
				cur = e.peer
			}
			return path, true
		}
		// Interdomain segment: walk toward the hot-potato exit into
		// nextAS, crossing as soon as a border router is reached.
		nextAS := n.NextAS(curAS, dstAS)
		if nextAS == netgen.None {
			return path, false
		}
		base := n.asBase[curAS]
		var t []int32 // egress table, fetched on first non-border hop
		for {
			if steps > maxSteps {
				return path, false
			}
			if e := n.findInterEdge(cur, nextAS); e != nil {
				// Cross directly: hot-potato exit at the first
				// opportunity.
				path = append(path, Hop{Router: e.peer, InIface: e.peerIface})
				steps++
				cur = e.peer
				break
			}
			if t == nil {
				t = n.egressNext(curAS, nextAS)
			}
			nh := t[int32(cur)-base]
			if nh == netgen.None {
				return path, false
			}
			e := n.findIntraEdge(cur, netgen.RouterID(nh))
			if e == nil {
				return path, false
			}
			path = append(path, Hop{Router: e.peer, InIface: e.peerIface})
			steps++
			cur = e.peer
		}
	}
	return path, true
}

// findIntraEdge locates the intra-AS half-edge from cur to nh (the
// lowest-interface one if several exist, for determinism), scanning
// cur's contiguous intra slab.
func (n *Network) findIntraEdge(cur, nh netgen.RouterID) *csrEdge {
	var best *csrEdge
	for i := n.estart[cur]; i < n.eintra[cur]; i++ {
		e := &n.edges[i]
		if e.peer != nh {
			continue
		}
		if best == nil || e.selfIface < best.selfIface {
			best = e
		}
	}
	return best
}

// findInterEdge returns cur's first interdomain half-edge into peerAS
// (first in Links order, matching the interdomain hop lists this layout
// replaced), or nil when cur does not border that AS.
func (n *Network) findInterEdge(cur netgen.RouterID, peerAS netgen.ASID) *csrEdge {
	for i := n.eintra[cur]; i < n.estart[int(cur)+1]; i++ {
		e := &n.edges[i]
		if e.peerTag == int32(peerAS) {
			return e
		}
	}
	return nil
}

// LookupDest resolves an arbitrary IPv4 destination address to the
// router that terminates probes sent to it: the owning router for an
// interface address, or the home router of the covering allocated /24
// (standing in for an end host on that subnet). ok is false for
// unallocated space.
func (n *Network) LookupDest(ip uint32) (netgen.RouterID, bool) {
	if ifid, ok := n.In.ByIP[ip]; ok {
		return n.In.Ifaces[ifid].Router, true
	}
	if r, ok := n.In.Prefix24Router[ip&^0xff]; ok {
		return r, true
	}
	return netgen.None, false
}

// AppendPathToIP routes from a source router toward an arbitrary
// destination address, appending to caller-owned storage (see
// AppendPath). The returned slice is path regrown, even on failure.
func (n *Network) AppendPathToIP(path []Hop, src netgen.RouterID, dstIP uint32) ([]Hop, netgen.RouterID, bool) {
	dst, ok := n.LookupDest(dstIP)
	if !ok {
		return path, netgen.None, false
	}
	path, ok = n.AppendPath(path, src, dst)
	return path, dst, ok
}

// PathVia implements loose source routing: route to the via router
// first, then on to the destination. The via router appears once. This
// is Mercator's mechanism for discovering lateral links that plain
// single-source probing misses.
func (n *Network) PathVia(src, via, dst netgen.RouterID) ([]Hop, bool) {
	return n.AppendPathVia(make([]Hop, 0, 16), src, via, dst)
}

// AppendPathVia is PathVia with caller-owned storage (see AppendPath).
func (n *Network) AppendPathVia(path []Hop, src, via, dst netgen.RouterID) ([]Hop, bool) {
	path, ok := n.walk(path, src, via, false)
	if !ok {
		return path, false
	}
	// Second leg: continue from via with its own loop-guard budget, as
	// two chained walks.
	return n.walk(path, via, dst, true)
}

// AliasReply simulates a UDP probe to an interface address: the owning
// router replies with an ICMP Port Unreachable sourced from its
// canonical address. Replies are suppressed for unresponsive routers
// and for ASes whose intrusion detection filters probe traffic; routers
// with broken alias behaviour reply from the probed interface instead,
// all as described in Section III-A of the paper.
func (n *Network) AliasReply(ip uint32) (uint32, bool) {
	ifid, ok := n.In.ByIP[ip]
	if !ok {
		return 0, false
	}
	r := n.In.RouterOf(ifid)
	if r.Unresponsive {
		return 0, false
	}
	if n.In.ASes[r.AS].IDSBlocks {
		return 0, false
	}
	if r.BrokenAlias {
		return ip, true
	}
	return r.CanonicalIP, true
}
