package netsim

// The seed implementation of the routing core, preserved verbatim (per
// -router adjacency lists, container/heap priority queue, global
// RWMutex caches, the dense all-pairs AS next-hop matrix) as a golden
// reference: TestCSRMatchesReference proves the CSR forwarding fabric
// reproduces its paths hop for hop, including equal-cost tie-breaks,
// and TestNextASMatchesReference that its memoised AS rows equal the
// matrix, which is what lets the rewrites claim byte-identical reports
// rather than merely plausible ones.

import (
	"container/heap"
	"sync"

	"geonet/internal/netgen"
)

type refNetwork struct {
	in        *netgen.Internet
	adj       [][]refHalfEdge
	interHops map[netgen.RouterID][]refInterEdge
	borders   map[[2]netgen.ASID][]netgen.RouterID

	mu          sync.RWMutex
	intraCache  map[netgen.RouterID][]int32
	egressCache map[[2]netgen.ASID][]int32

	// asNext[a*numAS+b] is the next AS on a shortest AS path a->b
	// (netgen.None when unreachable).
	asNext []int32
	numAS  int
}

type refHalfEdge struct {
	peer      netgen.RouterID
	selfIface netgen.IfaceID
	peerIface netgen.IfaceID
	lengthMi  float64
}

type refInterEdge struct {
	peerAS netgen.ASID
	edge   refHalfEdge
}

// refCompile builds the reference from in alone; the compiled fabric
// its callers pass is not consulted.
func refCompile(in *netgen.Internet, _ *Network) *refNetwork {
	n := &refNetwork{
		in:          in,
		adj:         make([][]refHalfEdge, len(in.Routers)),
		interHops:   make(map[netgen.RouterID][]refInterEdge),
		borders:     make(map[[2]netgen.ASID][]netgen.RouterID),
		intraCache:  make(map[netgen.RouterID][]int32),
		egressCache: make(map[[2]netgen.ASID][]int32),
		numAS:       len(in.ASes),
	}
	for _, l := range in.Links {
		a, b := in.Ifaces[l.A], in.Ifaces[l.B]
		n.adj[a.Router] = append(n.adj[a.Router], refHalfEdge{
			peer: b.Router, selfIface: l.A, peerIface: l.B, lengthMi: l.LengthMi})
		n.adj[b.Router] = append(n.adj[b.Router], refHalfEdge{
			peer: a.Router, selfIface: l.B, peerIface: l.A, lengthMi: l.LengthMi})
		if l.Inter {
			asA := in.Routers[a.Router].AS
			asB := in.Routers[b.Router].AS
			n.interHops[a.Router] = append(n.interHops[a.Router], refInterEdge{peerAS: asB, edge: refHalfEdge{
				peer: b.Router, selfIface: l.A, peerIface: l.B, lengthMi: l.LengthMi}})
			n.interHops[b.Router] = append(n.interHops[b.Router], refInterEdge{peerAS: asA, edge: refHalfEdge{
				peer: a.Router, selfIface: l.B, peerIface: l.A, lengthMi: l.LengthMi}})
			n.refAddBorder(asA, asB, a.Router)
			n.refAddBorder(asB, asA, b.Router)
		}
	}
	n.computeASNext()
	return n
}

// computeASNext runs a BFS from every AS over the AS adjacency graph,
// recording the next hop toward each destination AS. Ties break toward
// the lowest AS ID, keeping forwarding deterministic.
func (n *refNetwork) computeASNext() {
	numAS := n.numAS
	n.asNext = make([]int32, numAS*numAS)
	for i := range n.asNext {
		n.asNext[i] = netgen.None
	}
	// Sorted neighbour lists for deterministic tie-breaking.
	neighbors := make([][]netgen.ASID, numAS)
	for i := range n.in.ASes {
		ns := append([]netgen.ASID{}, n.in.ASes[i].Neighbors...)
		for a := 1; a < len(ns); a++ {
			for b := a; b > 0 && ns[b] < ns[b-1]; b-- {
				ns[b], ns[b-1] = ns[b-1], ns[b]
			}
		}
		neighbors[i] = ns
	}
	dist := make([]int32, numAS)
	queue := make([]netgen.ASID, 0, numAS)
	for src := 0; src < numAS; src++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[src] = 0
		queue = append(queue, netgen.ASID(src))
		// firstHop[x] = neighbour of src that the path to x leaves by.
		base := src * numAS
		n.asNext[base+src] = int32(src)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, nb := range neighbors[cur] {
				if dist[nb] != -1 {
					continue
				}
				dist[nb] = dist[cur] + 1
				if cur == netgen.ASID(src) {
					n.asNext[base+int(nb)] = int32(nb)
				} else {
					n.asNext[base+int(nb)] = n.asNext[base+int(cur)]
				}
				queue = append(queue, nb)
			}
		}
	}
}

// nextAS returns the next AS on the path from a to b, or None.
func (n *refNetwork) nextAS(a, b netgen.ASID) netgen.ASID {
	if a == b {
		return a
	}
	return netgen.ASID(n.asNext[int(a)*n.numAS+int(b)])
}

// refAddBorder keeps the seed's O(n²) linear-scan dedup: it IS the
// specification the set-based dedup must reproduce (same first
// -appearance order).
func (n *refNetwork) refAddBorder(from, to netgen.ASID, r netgen.RouterID) {
	key := [2]netgen.ASID{from, to}
	for _, existing := range n.borders[key] {
		if existing == r {
			return
		}
	}
	n.borders[key] = append(n.borders[key], r)
}

type refPQItem struct {
	router netgen.RouterID
	dist   float64
}

type refPQ []refPQItem

func (p refPQ) Len() int            { return len(p) }
func (p refPQ) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p refPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x interface{}) { *p = append(*p, x.(refPQItem)) }
func (p *refPQ) Pop() interface{} {
	old := *p
	n := len(old)
	item := old[n-1]
	*p = old[:n-1]
	return item
}

func (n *refNetwork) spfToSources(as *netgen.AS, sources []netgen.RouterID) []int32 {
	size := len(as.Routers)
	next := make([]int32, size)
	dist := make([]float64, size)
	for i := range next {
		next[i] = netgen.None
		dist[i] = -1
	}
	h := make(refPQ, 0, len(sources))
	for _, s := range sources {
		idx := n.in.Routers[s].ASIndex
		if dist[idx] == -1 {
			dist[idx] = 0
			next[idx] = int32(s)
			heap.Push(&h, refPQItem{router: s, dist: 0})
		}
	}
	asID := as.ID
	for h.Len() > 0 {
		item := heap.Pop(&h).(refPQItem)
		cur := item.router
		curIdx := n.in.Routers[cur].ASIndex
		if item.dist > dist[curIdx] {
			continue
		}
		for _, e := range n.adj[cur] {
			if n.in.Routers[e.peer].AS != asID {
				continue
			}
			pIdx := n.in.Routers[e.peer].ASIndex
			nd := item.dist + e.lengthMi + 5
			if dist[pIdx] == -1 || nd < dist[pIdx] {
				dist[pIdx] = nd
				next[pIdx] = int32(cur)
				heap.Push(&h, refPQItem{router: e.peer, dist: nd})
			}
		}
	}
	return next
}

func (n *refNetwork) intraNext(dst netgen.RouterID) []int32 {
	n.mu.RLock()
	t, ok := n.intraCache[dst]
	n.mu.RUnlock()
	if ok {
		return t
	}
	as := &n.in.ASes[n.in.Routers[dst].AS]
	t = n.spfToSources(as, []netgen.RouterID{dst})
	n.mu.Lock()
	n.intraCache[dst] = t
	n.mu.Unlock()
	return t
}

func (n *refNetwork) egressNext(a, b netgen.ASID) []int32 {
	key := [2]netgen.ASID{a, b}
	n.mu.RLock()
	t, ok := n.egressCache[key]
	n.mu.RUnlock()
	if ok {
		return t
	}
	borders := n.borders[key]
	t = n.spfToSources(&n.in.ASes[a], borders)
	n.mu.Lock()
	n.egressCache[key] = t
	n.mu.Unlock()
	return t
}

func (n *refNetwork) path(src, dst netgen.RouterID) ([]Hop, bool) {
	path := make([]Hop, 0, 16)
	path = append(path, Hop{Router: src, InIface: netgen.None})
	cur := src
	dstAS := n.in.Routers[dst].AS
	for cur != dst {
		if len(path) > maxSteps {
			return path, false
		}
		curAS := n.in.Routers[cur].AS
		var edge refHalfEdge
		found := false
		if curAS == dstAS {
			t := n.intraNext(dst)
			nh := t[n.in.Routers[cur].ASIndex]
			if nh == netgen.None {
				return path, false
			}
			edge, found = n.findEdge(cur, netgen.RouterID(nh))
		} else {
			nextAS := n.nextAS(curAS, dstAS)
			if nextAS == netgen.None {
				return path, false
			}
			for _, ie := range n.interHops[cur] {
				if ie.peerAS == nextAS {
					edge, found = ie.edge, true
					break
				}
			}
			if !found {
				t := n.egressNext(curAS, nextAS)
				nh := t[n.in.Routers[cur].ASIndex]
				if nh == netgen.None {
					return path, false
				}
				edge, found = n.findEdge(cur, netgen.RouterID(nh))
			}
		}
		if !found {
			return path, false
		}
		path = append(path, Hop{Router: edge.peer, InIface: edge.peerIface})
		cur = edge.peer
	}
	return path, true
}

func (n *refNetwork) findEdge(cur, nh netgen.RouterID) (refHalfEdge, bool) {
	var best refHalfEdge
	found := false
	for _, e := range n.adj[cur] {
		if e.peer != nh {
			continue
		}
		if !found || e.selfIface < best.selfIface {
			best = e
			found = true
		}
	}
	return best, found
}

func (n *refNetwork) pathVia(src, via, dst netgen.RouterID) ([]Hop, bool) {
	first, ok := n.path(src, via)
	if !ok {
		return first, false
	}
	second, ok := n.path(via, dst)
	if !ok {
		return append(first, second[1:]...), false
	}
	return append(first, second[1:]...), true
}
