// Package netsim is the packet-level network simulator the probing
// tools run against. It compiles a netgen.Internet into forwarding
// state and implements the protocol semantics measurement tools depend
// on:
//
//   - hierarchical routing: shortest AS path between domains, hot-potato
//     (nearest-exit) egress selection, and shortest-path forwarding
//     inside each AS;
//   - ICMP Time Exceeded replies sourced from the interface the probe
//     arrived on (what makes traceroute see interfaces, Section III-A);
//   - ICMP Port Unreachable replies sourced from a router's canonical
//     address (what Mercator's alias resolution keys on, Section III-A);
//   - loose source routing (Mercator's lateral-discovery mechanism);
//   - unresponsive routers, IDS-filtered alias probes and per-hop loss.
//
// # Forwarding fabric layout
//
// The adjacency is a compressed sparse row (CSR) over the AS-partition
// ordering netgen guarantees (each AS's routers occupy one contiguous
// RouterID range, see netgen.Internet.CheckASPartition). All half-edges
// live in one flat slab, grouped per router with the intra-AS edges
// first and the interdomain edges after, both groups preserving Links
// order. Intra-AS Dijkstra therefore iterates a contiguous edge run
// with no per-edge AS filtering, and each edge carries its peer's dense
// in-AS index so the relaxation never touches the Routers slice.
//
// The Dijkstra itself is allocation-free on the steady path: its
// priority queue is a non-interface index heap replicating
// container/heap's exact comparison order (so shortest-path tie-breaks
// are bit-identical to the boxed implementation it replaced), and the
// distance and heap scratch buffers are recycled through a sync.Pool.
// Only the resulting next-hop table is allocated, because it outlives
// the computation in the cache.
//
// # Routing-table caches
//
// All routing state is one kind of table, computed on first use and
// memoised in the shard of the AS it belongs to. There are three table
// kinds: the intra-AS next-hop table toward each router (shortest path
// inside the destination's AS), the hot-potato table of each (AS,
// next-AS) pair (toward the nearest border router into the next AS),
// and each AS's next-hop row (the next AS on a shortest AS path toward
// every other AS, by a breadth-first search rooted at that AS). One
// memo path serves all three: a hit is one atomic pointer load — no
// lock — so concurrent probes never contend on a global mutex; a miss
// computes the table under the shard's single-flight guard, so many
// probes racing toward one table compute it once. When the total number
// of cached tables exceeds CacheBudget, shards are evicted round-robin
// until half the budget is free, instead of dropping every table at
// once. Every table is a pure function of the immutable topology, so
// cache timing never changes forwarding results, and no state grows
// with the square of the AS count: only the rows the probes read exist.
package netsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"geonet/internal/netgen"
)

// Network is the compiled forwarding fabric.
type Network struct {
	In *netgen.Internet

	// CSR adjacency: edges[estart[r]:eintra[r]] are router r's intra-AS
	// half-edges, edges[eintra[r]:estart[r+1]] its interdomain ones.
	// Both groups preserve Links order, which keeps Dijkstra's edge
	// relaxation order — and therefore equal-cost tie-breaking —
	// identical to the per-router adjacency lists this layout replaced.
	estart []int32
	eintra []int32
	edges  []csrEdge

	// asBase[a] is the first RouterID of AS a (the AS-partition
	// ordering invariant), so a router's dense in-AS index is its ID
	// minus the base.
	asBase []int32

	// asNbrs[a] lists AS a's declared neighbours in ascending order,
	// the order the AS-path search visits them in.
	asNbrs [][]netgen.ASID

	// borders[a][b] lists routers of AS a having a direct link to AS b,
	// in first-appearance (Links) order.
	borders map[[2]netgen.ASID][]netgen.RouterID

	// shards holds the per-AS routing-table caches; cached counts the
	// tables held across all shards against CacheBudget, and clock is
	// the round-robin eviction hand.
	shards  []routeShard
	cached  atomic.Int64
	clock   atomic.Uint32
	evictMu sync.Mutex

	// CacheBudget bounds the total number of memoised tables; eviction
	// clears shards round-robin until half the budget is free.
	CacheBudget int
}

// csrEdge is one directed half-edge in the flat adjacency slab.
type csrEdge struct {
	peer netgen.RouterID
	// peerTag is the peer's dense in-AS index for intra-AS edges, and
	// the peer's AS for interdomain edges.
	peerTag   int32
	selfIface netgen.IfaceID // interface on this router
	peerIface netgen.IfaceID // interface on the peer (its inbound side)
	lengthMi  float64
}

// routeShard is one AS's routing-table cache. Table reads are lock-free
// atomic pointer loads; misses coordinate through mu and the
// single-flight map so a table is computed once no matter how many
// probes race toward it.
type routeShard struct {
	mu    sync.Mutex
	count int32 // cached tables in this shard (guarded by mu)

	// tables[i] for i below the AS's router count caches the next-hop
	// table toward the router with in-AS index i; the slot at the
	// router count caches the AS's next-hop row; the slots after it
	// cache the hot-potato tables toward the AS's neighbours, in asNbrs
	// order.
	tables []atomic.Pointer[[]int32]

	flights map[int32]*flight // by slot, guarded by mu
}

// flight is one in-progress table computation other probes can wait on.
type flight struct {
	done  chan struct{}
	table []int32
}

// Compile builds the forwarding fabric from ground truth.
func Compile(in *netgen.Internet) *Network {
	if err := in.CheckASPartition(); err != nil {
		panic(fmt.Sprintf("netsim: %v", err))
	}
	n := &Network{
		In:          in,
		borders:     make(map[[2]netgen.ASID][]netgen.RouterID),
		CacheBudget: 60000,
	}
	n.asBase = make([]int32, len(in.ASes))
	n.asNbrs = make([][]netgen.ASID, len(in.ASes))
	for ai := range in.ASes {
		if rs := in.ASes[ai].Routers; len(rs) > 0 {
			n.asBase[ai] = int32(rs[0])
		}
		n.asNbrs[ai] = slices.Clone(in.ASes[ai].Neighbors)
		slices.Sort(n.asNbrs[ai])
	}

	// CSR construction: count per-router intra/inter degrees, prefix-sum
	// the slab bounds, then fill in Links order.
	numR := len(in.Routers)
	intraDeg := make([]int32, numR)
	interDeg := make([]int32, numR)
	for li := range in.Links {
		l := &in.Links[li]
		a, b := in.Ifaces[l.A].Router, in.Ifaces[l.B].Router
		inter := in.Routers[a].AS != in.Routers[b].AS
		if inter != l.Inter {
			panic("netsim: link Inter flag disagrees with endpoint ASes")
		}
		if inter {
			interDeg[a]++
			interDeg[b]++
		} else {
			intraDeg[a]++
			intraDeg[b]++
		}
	}
	n.estart = make([]int32, numR+1)
	n.eintra = make([]int32, numR)
	for r := 0; r < numR; r++ {
		n.eintra[r] = n.estart[r] + intraDeg[r]
		n.estart[r+1] = n.eintra[r] + interDeg[r]
	}
	n.edges = make([]csrEdge, n.estart[numR])
	// Reuse the degree arrays as fill cursors.
	for r := range intraDeg {
		intraDeg[r], interDeg[r] = 0, 0
	}
	borderSeen := make(map[[3]int32]struct{})
	for li := range in.Links {
		l := &in.Links[li]
		a, b := in.Ifaces[l.A].Router, in.Ifaces[l.B].Router
		asA, asB := in.Routers[a].AS, in.Routers[b].AS
		if asA == asB {
			n.edges[n.estart[a]+intraDeg[a]] = csrEdge{
				peer: b, peerTag: in.Routers[b].ASIndex,
				selfIface: l.A, peerIface: l.B, lengthMi: l.LengthMi}
			intraDeg[a]++
			n.edges[n.estart[b]+intraDeg[b]] = csrEdge{
				peer: a, peerTag: in.Routers[a].ASIndex,
				selfIface: l.B, peerIface: l.A, lengthMi: l.LengthMi}
			intraDeg[b]++
		} else {
			n.edges[n.eintra[a]+interDeg[a]] = csrEdge{
				peer: b, peerTag: int32(asB),
				selfIface: l.A, peerIface: l.B, lengthMi: l.LengthMi}
			interDeg[a]++
			n.edges[n.eintra[b]+interDeg[b]] = csrEdge{
				peer: a, peerTag: int32(asA),
				selfIface: l.B, peerIface: l.A, lengthMi: l.LengthMi}
			interDeg[b]++
			n.addBorder(borderSeen, asA, asB, a)
			n.addBorder(borderSeen, asB, asA, b)
		}
	}

	// NextAS only ever answers with a declared neighbour, so those are
	// the only ASes a packet is handed to: one egress slot each (a
	// declared-but-unlinked neighbour gets a necessarily empty table).
	n.shards = make([]routeShard, len(in.ASes))
	for ai := range in.ASes {
		n.shards[ai].tables = make([]atomic.Pointer[[]int32], len(in.ASes[ai].Routers)+1+len(n.asNbrs[ai]))
	}
	return n
}

// addBorder records r as a border router of AS from toward AS to,
// deduplicating routers with several links into the same peer AS in
// O(1) via the seen set (the linear rescan this replaced was quadratic
// in border-router count per AS pair).
func (n *Network) addBorder(seen map[[3]int32]struct{}, from, to netgen.ASID, r netgen.RouterID) {
	sk := [3]int32{int32(from), int32(to), int32(r)}
	if _, dup := seen[sk]; dup {
		return
	}
	seen[sk] = struct{}{}
	key := [2]netgen.ASID{from, to}
	n.borders[key] = append(n.borders[key], r)
}

// NextAS returns the next AS on the path from a to b, or None.
func (n *Network) NextAS(a, b netgen.ASID) netgen.ASID {
	return netgen.ASID(n.table(a, int32(len(n.In.ASes[a].Routers)))[b])
}

// asNextRow runs a BFS from AS src over the AS adjacency graph and
// returns src's next-hop row: row[b] is the next AS on a shortest AS
// path src->b, src itself for b == src and None when b is unreachable.
// Ties break toward the lowest AS ID, keeping forwarding deterministic.
func (n *Network) asNextRow(src netgen.ASID) []int32 {
	row := make([]int32, len(n.asNbrs))
	for i := range row {
		row[i] = netgen.None
	}
	row[src] = int32(src)
	// A visited AS has a next hop; the queue holds each AS once.
	queue := make([]netgen.ASID, 1, len(n.asNbrs))
	queue[0] = src
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, nb := range n.asNbrs[cur] {
			if row[nb] != netgen.None {
				continue
			}
			if cur == src {
				row[nb] = int32(nb)
			} else {
				row[nb] = row[cur]
			}
			queue = append(queue, nb)
		}
	}
	return row
}

// ---- Dijkstra machinery over one AS's subgraph ----

// spfItem is one priority-queue entry. The queue is an index heap on
// dist that replicates container/heap's sift algorithms exactly, so
// equal-distance pop order — and with it every shortest-path tie-break
// — matches the boxed heap the seed implementation used, without the
// per-push interface allocation.
type spfItem struct {
	dist   float64
	router int32
}

func heapPush(h []spfItem, it spfItem) []spfItem {
	h = append(h, it)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func heapPop(h []spfItem) (spfItem, []spfItem) {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= last {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < last && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[last], h[:last]
}

// spfScratch recycles the Dijkstra working set; only the next-hop table
// itself is allocated per run, because it outlives the run in a cache.
type spfScratch struct {
	dist []float64
	heap []spfItem
}

var spfPool = sync.Pool{New: func() interface{} { return &spfScratch{} }}

// spfToSources computes, for every router of the AS, the next hop on a
// shortest path toward the nearest of the given source routers (all of
// which must belong to the AS). Returned as a dense table indexed by
// in-AS index; sources map to themselves; unreachable routers get None.
// Link weights are length in miles plus a 5-mile constant so hop count
// breaks near-ties.
func (n *Network) spfToSources(as *netgen.AS, sources []netgen.RouterID) []int32 {
	size := len(as.Routers)
	next := make([]int32, size)
	sc := spfPool.Get().(*spfScratch)
	if cap(sc.dist) < size {
		sc.dist = make([]float64, size)
	}
	dist := sc.dist[:size]
	for i := range next {
		next[i] = netgen.None
		dist[i] = -1
	}
	h := sc.heap[:0]
	base := n.asBase[as.ID]
	for _, s := range sources {
		idx := int32(s) - base
		if dist[idx] == -1 {
			dist[idx] = 0
			next[idx] = int32(s)
			h = heapPush(h, spfItem{dist: 0, router: int32(s)})
		}
	}
	for len(h) > 0 {
		var item spfItem
		item, h = heapPop(h)
		cur := item.router
		if item.dist > dist[cur-base] {
			continue
		}
		for _, e := range n.edges[n.estart[cur]:n.eintra[cur]] {
			pIdx := e.peerTag
			nd := item.dist + e.lengthMi + 5
			if dist[pIdx] == -1 || nd < dist[pIdx] {
				dist[pIdx] = nd
				next[pIdx] = cur // step toward the source set
				h = heapPush(h, spfItem{dist: nd, router: int32(e.peer)})
			}
		}
	}
	sc.heap = h // len 0; keeps the grown capacity for the next run
	spfPool.Put(sc)
	return next
}

// intraNext returns the next-hop table toward dst within dst's AS.
func (n *Network) intraNext(dst netgen.RouterID) []int32 {
	r := &n.In.Routers[dst]
	return n.table(r.AS, r.ASIndex)
}

// egressNext returns the hot-potato next-hop table within AS a toward
// its nearest border with AS b, which must be one of a's neighbours.
func (n *Network) egressNext(a, b netgen.ASID) []int32 {
	i, ok := slices.BinarySearch(n.asNbrs[a], b)
	if !ok {
		panic(fmt.Sprintf("netsim: egress from AS %d toward AS %d, which is not its neighbour", a, b))
	}
	return n.table(a, int32(len(n.In.ASes[a].Routers)+1+i))
}

// table returns the table in slot of AS a's shard (see routeShard). A
// hit is a single atomic load; a miss computes the table under the
// shard's single-flight guard and counts it against CacheBudget.
func (n *Network) table(a netgen.ASID, slot int32) []int32 {
	sh := &n.shards[a]
	if p := sh.tables[slot].Load(); p != nil {
		return *p
	}
	sh.mu.Lock()
	if p := sh.tables[slot].Load(); p != nil {
		sh.mu.Unlock()
		return *p
	}
	if fl, ok := sh.flights[slot]; ok {
		sh.mu.Unlock()
		<-fl.done
		return fl.table
	}
	if sh.flights == nil {
		sh.flights = make(map[int32]*flight)
	}
	fl := &flight{done: make(chan struct{})}
	sh.flights[slot] = fl
	sh.mu.Unlock()

	as := &n.In.ASes[a]
	var t []int32
	switch nr := int32(len(as.Routers)); {
	case slot < nr:
		src := [1]netgen.RouterID{netgen.RouterID(n.asBase[a] + slot)}
		t = n.spfToSources(as, src[:])
	case slot == nr:
		t = n.asNextRow(a)
	default:
		t = n.spfToSources(as, n.borders[[2]netgen.ASID{a, n.asNbrs[a][slot-nr-1]}])
	}
	fl.table = t
	close(fl.done)

	sh.mu.Lock()
	delete(sh.flights, slot)
	sh.tables[slot].Store(&t)
	sh.count++
	sh.mu.Unlock()
	n.cached.Add(1)
	n.maybeEvict()
	return t
}

// CachedTables reports how many routing tables are currently memoised
// (diagnostics and cache tests).
func (n *Network) CachedTables() int { return int(n.cached.Load()) }

// maybeEvict clears shards round-robin once the cached-table count
// exceeds CacheBudget, until half the budget is free again. Holding no
// shard lock while sweeping (and at most one inside the sweep) keeps
// the path deadlock-free; the hysteresis keeps a hot cache from
// flapping at the boundary.
func (n *Network) maybeEvict() {
	if n.CacheBudget <= 0 || int(n.cached.Load()) <= n.CacheBudget {
		return
	}
	n.evictMu.Lock()
	defer n.evictMu.Unlock()
	target := int64(n.CacheBudget / 2)
	// Two full sweeps bound the loop even under concurrent inserts.
	for tries := 0; tries < 2*len(n.shards) && n.cached.Load() > target; tries++ {
		sh := &n.shards[int(n.clock.Add(1)-1)%len(n.shards)]
		sh.mu.Lock()
		freed := int64(sh.count)
		if freed > 0 {
			for i := range sh.tables {
				sh.tables[i].Store(nil)
			}
			sh.count = 0
		}
		sh.mu.Unlock()
		if freed > 0 {
			n.cached.Add(-freed)
		}
	}
}
