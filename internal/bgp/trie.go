// Package bgp implements the BGP-table substrate the paper uses to
// label nodes with their parent AS (Section III-C): a binary patricia
// trie keyed on IPv4 prefixes, longest-prefix-match lookup, and a
// RouteViews-style table assembled as the union of per-vantage views of
// the ground-truth address allocation — complete with the coverage gaps
// that left 1.5-2.8% of the paper's addresses unmapped.
package bgp

import (
	"fmt"
	"sort"
)

// Route associates a prefix with its originating AS number.
type Route struct {
	Addr   uint32
	Len    int
	Origin int // origin AS number
}

// Trie is a binary (one bit per level) prefix trie supporting
// longest-prefix-match. The zero value is an empty trie ready to use.
type Trie struct {
	root *trieNode
	size int
}

type trieNode struct {
	children [2]*trieNode
	route    *Route
}

// Insert adds or replaces the route for a prefix.
func (t *Trie) Insert(r Route) {
	if r.Len < 0 || r.Len > 32 {
		panic(fmt.Sprintf("bgp: invalid prefix length %d", r.Len))
	}
	// Canonicalise: zero the host bits.
	if r.Len < 32 {
		r.Addr &= ^uint32(0) << (32 - uint(r.Len))
	}
	if t.root == nil {
		t.root = &trieNode{}
	}
	node := t.root
	for i := 0; i < r.Len; i++ {
		bit := (r.Addr >> (31 - uint(i))) & 1
		if node.children[bit] == nil {
			node.children[bit] = &trieNode{}
		}
		node = node.children[bit]
	}
	if node.route == nil {
		t.size++
	}
	rr := r
	node.route = &rr
}

// Lookup returns the longest-prefix-match route for an address.
func (t *Trie) Lookup(ip uint32) (Route, bool) {
	if t.root == nil {
		return Route{}, false
	}
	var best *Route
	node := t.root
	if node.route != nil {
		best = node.route
	}
	for i := 0; i < 32 && node != nil; i++ {
		bit := (ip >> (31 - uint(i))) & 1
		node = node.children[bit]
		if node != nil && node.route != nil {
			best = node.route
		}
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Len reports the number of routes stored.
func (t *Trie) Len() int { return t.size }

// Walk visits every route in address order (then by ascending prefix
// length, i.e. less-specifics first).
func (t *Trie) Walk(fn func(Route)) {
	var routes []Route
	var rec func(n *trieNode)
	rec = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.route != nil {
			routes = append(routes, *n.route)
		}
		rec(n.children[0])
		rec(n.children[1])
	}
	rec(t.root)
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Addr != routes[j].Addr {
			return routes[i].Addr < routes[j].Addr
		}
		return routes[i].Len < routes[j].Len
	})
	for _, r := range routes {
		fn(r)
	}
}
