package bgp

import (
	"geonet/internal/netgen"
	"geonet/internal/rng"
)

// Table is an assembled BGP routing table with longest-prefix-match
// origin lookup — the reproduction's RouteViews stand-in.
type Table struct {
	trie Trie
}

// Route leakage in the synthetic RouteViews table. Typed, so their
// quotient is taken between float64 values, as at run time.
const (
	// moreSpecificProb announces a random /24 more-specific alongside
	// an AS's aggregate (multihoming/traffic engineering leakage),
	// exercising true longest-prefix-match behaviour.
	moreSpecificProb float64 = 0.10
	// staleOriginProb re-originates a more-specific from a *different*
	// AS (a stale or hijacked route), a real-world mapping error source.
	staleOriginProb float64 = 0.003
)

// Assemble builds the table from the ground-truth allocation.
// missingASProb drops all announcements of an AS (a vantage-point
// coverage gap): the paper found 1.5% (Skitter epoch) to 2.8%
// (Mercator epoch) of addresses unmappable, and small ASes missing
// from the table union reproduce that. Only stub ASes can fall into
// coverage gaps — every vantage point sees the big backbones, exactly
// as with RouteViews.
func Assemble(in *netgen.Internet, missingASProb float64, s *rng.Stream) *Table {
	t := &Table{}
	for _, as := range in.ASes {
		missing := as.Type == netgen.Stub && s.Bool(missingASProb)
		for _, p := range as.Prefixes {
			if missing {
				continue
			}
			t.trie.Insert(Route{Addr: p.Addr, Len: p.Len, Origin: as.Number})
			if s.Bool(moreSpecificProb) && p.Len < 24 {
				// Announce one covered /24 as a more-specific.
				span := uint32(1) << (24 - uint(p.Len))
				sub := p.Addr + (uint32(s.Intn(int(span))) << 8)
				origin := as.Number
				if s.Bool(staleOriginProb / moreSpecificProb) {
					// Stale origin: some other AS.
					other := in.ASes[s.Intn(len(in.ASes))]
					origin = other.Number
				}
				t.trie.Insert(Route{Addr: sub, Len: 24, Origin: origin})
			}
		}
	}
	return t
}

// OriginAS returns the AS number originating the longest matching
// prefix for ip, or ok=false when the table has no covering route —
// the addresses the paper groups into a separate AS "which was omitted
// in our analysis of Autonomous Systems".
func (t *Table) OriginAS(ip uint32) (int, bool) {
	r, ok := t.trie.Lookup(ip)
	if !ok {
		return 0, false
	}
	return r.Origin, true
}

// Len reports the number of routes.
func (t *Table) Len() int { return t.trie.Len() }

// Insert adds a route directly (tests and churn).
func (t *Table) Insert(r Route) { t.trie.Insert(r) }

// Walk visits all routes in canonical order.
func (t *Table) Walk(fn func(Route)) { t.trie.Walk(fn) }
