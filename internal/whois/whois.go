// Package whois is the reproduction's registry substrate (the ARIN /
// RIPE / APNIC stand-in). Every AS registers one organisation record
// whose postal address is its headquarters city. This bakes in the
// failure mode the paper calls out for whois-based geolocation: "the
// whois lookup method is generally accurate for small organizations but
// may fail in cases where geographically dispersed hosts are mapped to
// an organization's registered headquarters" (Section III-B).
package whois

import (
	"fmt"
	"sort"
	"strings"

	"geonet/internal/geo"
	"geonet/internal/netgen"
)

// Record is one registry object: an organisation with its registered
// address ranges and headquarters location.
type Record struct {
	OrgID    string
	OrgName  string
	ASNumber int
	// City and Loc describe the registered headquarters.
	City string
	Loc  geo.Point
	// Ranges are the organisation's registered address blocks.
	Ranges []netgen.Prefix
}

// Registry answers whois queries by IP address.
type Registry struct {
	records []Record
	// index maps sorted range starts to record indices for lookup.
	starts []uint32
	ends   []uint32
	recIdx []int
}

// FromInternet builds the registry from ground truth.
func FromInternet(in *netgen.Internet) *Registry {
	reg := &Registry{}
	for _, as := range in.ASes {
		hq := in.World.Places[as.HomePlace]
		reg.records = append(reg.records, Record{
			OrgID:    fmt.Sprintf("ORG-%d", as.Number),
			OrgName:  strings.ToUpper(as.OrgName),
			ASNumber: as.Number,
			City:     hq.Name,
			Loc:      hq.Loc,
			Ranges:   as.Prefixes,
		})
	}
	reg.buildIndex()
	return reg
}

func (r *Registry) buildIndex() {
	type span struct {
		start, end uint32
		idx        int
	}
	var spans []span
	for i, rec := range r.records {
		for _, p := range rec.Ranges {
			spans = append(spans, span{p.Addr, p.Addr + p.Size() - 1, i})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for _, s := range spans {
		r.starts = append(r.starts, s.start)
		r.ends = append(r.ends, s.end)
		r.recIdx = append(r.recIdx, s.idx)
	}
}

// Lookup finds the record whose registered range covers the address.
func (r *Registry) Lookup(ip uint32) (Record, bool) {
	// Binary search for the last range starting at or before ip.
	lo, hi := 0, len(r.starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.starts[mid] <= ip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Record{}, false
	}
	i := lo - 1
	if ip > r.ends[i] {
		return Record{}, false
	}
	return r.records[r.recIdx[i]], true
}
