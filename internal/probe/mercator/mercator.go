// Package mercator reproduces the Scan project's Mercator methodology
// (Section III-A): single-host map discovery using informed random
// address probing, loose source routing for lateral connectivity, and
// UDP-probe alias resolution that collapses interface addresses to
// per-router canonical addresses.
//
// Discovery proceeds in fixed-size probe batches: each batch's plans
// (frontier block, destination address, LSR decision) are drawn
// serially from the control stream, the traces themselves run
// concurrently on per-probe split streams, and observations are
// ingested in probe order. Because the batch size is a package
// constant — not a function of GOMAXPROCS — the discovered map
// is bit-identical at any parallelism. Within a batch, traces execute
// in destination-address order — which groups them by destination AS,
// since address allocation is CIDR-contiguous per AS — so probes
// sharing routing tables run back to back against a hot cache; since
// every probe has its own stream and result slot, that order is a pure
// scheduling choice and cannot affect the discovered map.
package mercator

import (
	"sort"

	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/parallel"
	"geonet/internal/probe/tracer"
	"geonet/internal/rng"
)

// The run is sized so Mercator discovers a substantially smaller graph
// than Skitter, as in the paper (268k vs 704k interfaces).
const (
	// lsrFraction is the share of probes sent with loose source
	// routing through an already-discovered router.
	lsrFraction = 0.25
	// neighborExpandProb adds the /24s adjacent to a newly discovered
	// one to the probe frontier (the "informed" part of informed
	// random address probing).
	neighborExpandProb = 0.6
	// seedBlocks primes the frontier with this many random allocated
	// /24s (Mercator started from its own host's neighbourhood; a few
	// seeds keep the walk from stalling in a stub corner).
	seedBlocks = 8
	// batchProbes is the number of probes planned per round; frontier
	// and LSR-candidate updates land between rounds. The batch size is
	// part of the random-walk definition, so it must not depend on
	// GOMAXPROCS, which bounds the in-batch trace fan-out.
	batchProbes = 64
)

// Result is the discovered map, before and after alias resolution.
type Result struct {
	// IfaceNodes and IfaceLinks form the raw interface-level graph.
	IfaceNodes map[uint32]struct{}
	IfaceLinks map[[2]uint32]struct{}
	// Alias maps every discovered interface address to its canonical
	// address (itself when resolution failed) — the output of the UDP
	// probe technique of Pansiot & Grad the paper describes.
	Alias map[uint32]uint32
	// RouterNodes and RouterLinks are the collapsed router-level graph.
	RouterNodes map[uint32]struct{}
	RouterLinks map[[2]uint32]struct{}
	Stats       Stats
}

// Stats summarises the run.
type Stats struct {
	Traces        int
	LSRTraces     int
	AliasProbes   int
	AliasResolved int
}

// probePlan is one batch entry: everything drawn from the control
// stream at planning time, plus the probe's own trace stream.
type probePlan struct {
	dst uint32
	via netgen.RouterID // None for a plain forward probe
	s   *rng.Stream
}

// Collect runs discovery from the Internet's Mercator host with the
// package's fixed walk constants and tracer.DefaultOptions.
func Collect(net *netsim.Network, s *rng.Stream) *Result {
	in := net.In
	res := &Result{
		IfaceNodes:  make(map[uint32]struct{}),
		IfaceLinks:  make(map[[2]uint32]struct{}),
		Alias:       make(map[uint32]uint32),
		RouterNodes: make(map[uint32]struct{}),
		RouterLinks: make(map[[2]uint32]struct{}),
	}
	host := in.MercatorHost
	if host == netgen.None {
		return res
	}
	opts := tracer.DefaultOptions()

	// Frontier of known /24 blocks.
	known := make(map[uint32]struct{})
	var frontier []uint32
	addBlock := func(b uint32) {
		if _, ok := known[b]; ok {
			return
		}
		if _, allocated := in.Prefix24Router[b]; !allocated {
			return
		}
		known[b] = struct{}{}
		frontier = append(frontier, b)
	}

	// Prime with the host's own block and a few seeds.
	hostIP := in.Routers[host].CanonicalIP
	addBlock(hostIP &^ 0xff)
	allBlocks := make([]uint32, 0, len(in.Prefix24Router))
	for b := range in.Prefix24Router {
		allBlocks = append(allBlocks, b)
	}
	sort.Slice(allBlocks, func(i, j int) bool { return allBlocks[i] < allBlocks[j] })
	for i := 0; i < seedBlocks && len(allBlocks) > 0; i++ {
		addBlock(allBlocks[s.Intn(len(allBlocks))])
	}

	// The probe budget: 6 traceroutes per allocated /24.
	budget := 6 * len(allBlocks)

	// Discovered router candidates for LSR vias.
	var discovered []uint32

	ingest := func(sc *tracer.Scratch, obs []tracer.Observation, dst uint32) {
		// Mercator maps routers: the destination's own reply (an end
		// host, or the probed address itself) is not an intermediate
		// hop and is excluded from the map.
		if n := len(obs); n > 0 && obs[n-1].IP == dst {
			obs = obs[:n-1]
		}
		for _, o := range obs {
			if !o.Responded {
				continue
			}
			if _, seen := res.IfaceNodes[o.IP]; !seen {
				res.IfaceNodes[o.IP] = struct{}{}
				discovered = append(discovered, o.IP)
				// Informed expansion: the /24 around a discovery and,
				// sometimes, its neighbours.
				b := o.IP &^ 0xff
				addBlock(b)
				if s.Bool(neighborExpandProb) {
					addBlock(b + 256)
				}
				if s.Bool(neighborExpandProb) {
					addBlock(b - 256)
				}
			}
		}
		for _, l := range sc.Links(obs) {
			res.IfaceLinks[l] = struct{}{}
		}
	}

	// Batch working state, allocated once and recycled every round:
	// per-slot trace streams (re-seeded in place, never reallocated),
	// per-slot tracer scratch buffers (the ingest pass also extracts
	// each probe's links into its slot's), the AS-sorted execution
	// order and the observation cut-outs the ingest pass reads.
	plans := make([]probePlan, 0, batchProbes)
	slotStreams := make([]*rng.Stream, batchProbes)
	scratches := make([]tracer.Scratch, batchProbes)
	observations := make([][]tracer.Observation, batchProbes)
	order := make([]int, 0, batchProbes)
	for probe := 0; probe < budget && len(frontier) > 0; probe += len(plans) {
		// Plan the batch serially against the current frontier and
		// discovery state.
		n := batchProbes
		if rem := budget - probe; rem < n {
			n = rem
		}
		plans = plans[:0]
		for k := 0; k < n; k++ {
			block := frontier[s.Intn(len(frontier))]
			slotStreams[k] = s.SplitNInto(slotStreams[k], "trace", probe+k)
			plan := probePlan{
				dst: block | uint32(1+s.Intn(253)),
				via: netgen.None,
				s:   slotStreams[k],
			}
			if len(discovered) > 0 && s.Bool(lsrFraction) {
				viaIP := discovered[s.Intn(len(discovered))]
				if ifid, ok := in.ByIP[viaIP]; ok {
					plan.via = in.Ifaces[ifid].Router
				}
			}
			plans = append(plans, plan)
		}

		// Trace the batch concurrently, in destination-address order:
		// the random-walk frontier scatters destinations across ASes,
		// but netgen allocates each AS one contiguous CIDR run, so
		// address order groups probes that share routing tables and
		// each worker's contiguous chunk stays cache-hot. Every plan
		// draws from its own stream and lands in its own slot, so the
		// execution order — like the worker count — cannot affect
		// results; the ingest pass below still runs in probe order.
		order = order[:0]
		for i := range plans {
			order = append(order, i)
		}
		sort.SliceStable(order, func(a, b int) bool { return plans[order[a]].dst < plans[order[b]].dst })
		parallel.ForEach(len(plans), func(j int) {
			i := order[j]
			p := plans[i]
			sc := &scratches[i]
			if p.via != netgen.None {
				if obs, _ := sc.TraceVia(net, host, p.via, p.dst, opts, p.s); obs != nil {
					observations[i] = obs
					return
				}
			}
			obs, _ := sc.Trace(net, host, p.dst, opts, p.s)
			observations[i] = obs
		})

		// Ingest in probe order so frontier growth is deterministic.
		for i := range plans {
			res.Stats.Traces++
			if plans[i].via != netgen.None {
				res.Stats.LSRTraces++
			}
			ingest(&scratches[i], observations[i], plans[i].dst)
		}
	}

	resolveAliases(net, res)
	collapse(res)
	return res
}

// resolveAliases sends a UDP probe to every discovered interface; the
// ICMP Port Unreachable source address groups interfaces by router.
// Probes fan out over chunks of the sorted interface list; replies are
// pure topology lookups, so the table is the same at any parallelism.
func resolveAliases(net *netsim.Network, res *Result) {
	ips := make([]uint32, 0, len(res.IfaceNodes))
	for ip := range res.IfaceNodes {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })

	type chunkResult struct {
		alias    map[uint32]uint32
		resolved int
	}
	chunks := parallel.Chunks(len(ips), 64)
	merged := parallel.Reduce(len(chunks),
		func(c int) chunkResult {
			cr := chunkResult{alias: make(map[uint32]uint32)}
			for _, ip := range ips[chunks[c][0]:chunks[c][1]] {
				canonical, ok := net.AliasReply(ip)
				if !ok {
					cr.alias[ip] = ip // unresolved: stays its own router
					continue
				}
				cr.alias[ip] = canonical
				if canonical != ip {
					cr.resolved++
				}
			}
			return cr
		},
		func(into, from chunkResult) chunkResult {
			for ip, canon := range from.alias {
				into.alias[ip] = canon
			}
			into.resolved += from.resolved
			return into
		})
	res.Stats.AliasProbes += len(ips)
	res.Stats.AliasResolved += merged.resolved
	for ip, canon := range merged.alias {
		res.Alias[ip] = canon
	}
}

// collapse maps the interface graph through the alias table, dropping
// links that become internal to one router.
func collapse(res *Result) {
	for ip := range res.IfaceNodes {
		res.RouterNodes[res.Alias[ip]] = struct{}{}
	}
	for l := range res.IfaceLinks {
		a, b := res.Alias[l[0]], res.Alias[l[1]]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		res.RouterLinks[[2]uint32{a, b}] = struct{}{}
	}
}
