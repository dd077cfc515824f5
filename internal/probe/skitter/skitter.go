// Package skitter reproduces CAIDA's Skitter collection methodology
// (Section III-A): ICMP forward-path probes from monitors around the
// world toward destination lists that aim to cover every allocated /24,
// unioned into one interface-level graph. Interfaces are virtual nodes;
// a link is a connection between two adjacent interfaces on a trace.
package skitter

import (
	"sort"

	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/parallel"
	"geonet/internal/probe/tracer"
	"geonet/internal/rng"
)

// Config controls a collection run.
type Config struct {
	// CoverageMin/CoverageMax bound the fraction of the global /24
	// list each monitor probes ("each probing a destination list of
	// varying size").
	CoverageMin, CoverageMax float64
	// Probe behaviour.
	Tracer tracer.Options
}

// DefaultConfig mirrors the paper's collection.
func DefaultConfig() Config {
	return Config{CoverageMin: 0.55, CoverageMax: 1.0, Tracer: tracer.DefaultOptions()}
}

// RawGraph is the union of all monitors' traces, before the dataset
// processing of Section III (which topo applies).
type RawGraph struct {
	// Nodes are all interface addresses observed on any trace.
	Nodes map[uint32]struct{}
	// Links are adjacent-interface pairs (canonically ordered).
	Links map[[2]uint32]struct{}
	// DestIPs is the union of all monitors' destination lists — the
	// paper discards all interfaces appearing in them ("many
	// destinations in these lists are end-hosts and we are interested
	// only in routers").
	DestIPs map[uint32]struct{}
	Stats   Stats
}

// Stats summarises the run.
type Stats struct {
	Monitors     int
	Traces       int
	TracesFailed int
	HopsObserved int
}

// monitorGraph is one monitor's contribution, merged after the fan-out.
type monitorGraph struct {
	nodes   map[uint32]struct{}
	links   map[[2]uint32]struct{}
	destIPs map[uint32]struct{}
	stats   Stats
}

// Collect runs the full multi-monitor collection. Monitors probe
// concurrently (bounded by GOMAXPROCS); each draws from its own
// numbered split of s and the union is a set, so the merged graph is
// the same at any parallelism.
func Collect(net *netsim.Network, cfg Config, s *rng.Stream) *RawGraph {
	in := net.In
	raw := &RawGraph{
		Nodes:   make(map[uint32]struct{}),
		Links:   make(map[[2]uint32]struct{}),
		DestIPs: make(map[uint32]struct{}),
	}

	// The global destination universe: one probe address per allocated
	// /24, covering "all blocks of 256 addresses" in the allocated
	// space.
	blocks := make([]uint32, 0, len(in.Prefix24Router))
	for b := range in.Prefix24Router {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })

	raw.Stats.Monitors = len(in.SkitterMonitors)
	partials := parallel.Map(len(in.SkitterMonitors),
		func(mi int) *monitorGraph {
			return collectMonitor(net, cfg, blocks, in.SkitterMonitors[mi], s.SplitN("monitor", mi))
		})
	// Merge in monitor order. The maps are sets and the counters sum,
	// so the merged content is order-independent; the fixed order keeps
	// that obvious.
	for _, mg := range partials {
		for ip := range mg.nodes {
			raw.Nodes[ip] = struct{}{}
		}
		for l := range mg.links {
			raw.Links[l] = struct{}{}
		}
		for ip := range mg.destIPs {
			raw.DestIPs[ip] = struct{}{}
		}
		raw.Stats.Traces += mg.stats.Traces
		raw.Stats.TracesFailed += mg.stats.TracesFailed
		raw.Stats.HopsObserved += mg.stats.HopsObserved
	}
	return raw
}

// blockDest picks the destination address probed within a block.
// Destination addresses are assigned per block, not per monitor: the
// real lists were compiled centrally (search-engine results, web cache
// logs, ...) and shared, so monitors mostly probe the same host in
// each /24. High host numbers model end hosts (router interfaces
// cluster at the bottom of each subnet).
func blockDest(block uint32) uint32 {
	h := block * 2654435761 // Knuth multiplicative hash
	return block | (200 + (h>>16)%54)
}

// collectMonitor runs one monitor's full destination sweep. The sweep
// walks /24 blocks in ascending address order, which — because netgen
// allocates each AS one contiguous CIDR run — visits destinations
// grouped by AS: the simulator computes each destination AS's routing
// tables once and serves the rest of the run's traces into that AS
// from a hot cache. One tracer.Scratch serves the whole sweep, so the
// per-trace path/observation/link buffers are allocated once per
// monitor rather than once per probe.
func collectMonitor(net *netsim.Network, cfg Config, blocks []uint32,
	monitor netgen.RouterID, ms *rng.Stream) *monitorGraph {

	mg := &monitorGraph{
		nodes:   make(map[uint32]struct{}),
		links:   make(map[[2]uint32]struct{}),
		destIPs: make(map[uint32]struct{}),
	}
	var sc tracer.Scratch
	coverage := cfg.CoverageMin + ms.Float64()*(cfg.CoverageMax-cfg.CoverageMin)
	for _, block := range blocks {
		if !ms.Bool(coverage) {
			continue
		}
		dst := blockDest(block)
		if ms.Bool(0.03) {
			// A minority of list entries differ between sources.
			dst = block | uint32(1+ms.Intn(253))
		}
		mg.destIPs[dst] = struct{}{}
		obs, _ := sc.Trace(net, monitor, dst, cfg.Tracer, ms)
		mg.stats.Traces++
		if obs == nil {
			mg.stats.TracesFailed++
			continue
		}
		for _, o := range obs {
			if o.Responded {
				mg.nodes[o.IP] = struct{}{}
				mg.stats.HopsObserved++
			}
		}
		for _, l := range sc.Links(obs) {
			mg.links[l] = struct{}{}
		}
	}
	return mg
}
