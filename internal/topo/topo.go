// Package topo turns raw collector output into the processed datasets
// of Table I, applying exactly the pipeline of Section III:
//
//   - Skitter: discard destination-list interfaces (end hosts), private
//     addresses and anomalies; geolocate every surviving interface,
//     discarding unmappable ones; label each with its origin AS by
//     longest prefix match.
//   - Mercator: collapse interfaces to routers via the alias table;
//     locate each router at the location most commonly reported across
//     its interfaces, discarding ties; label with the AS most commonly
//     reported by its interfaces.
//
// Nodes whose address has no covering BGP route keep ASN 0 — the
// paper's "separate AS, which was omitted in our analysis of
// Autonomous Systems".
package topo

import (
	"sort"

	"geonet/internal/bgp"
	"geonet/internal/geo"
	"geonet/internal/geoloc"
	"geonet/internal/probe/mercator"
	"geonet/internal/probe/skitter"
)

// Granularity says whether dataset nodes are interfaces or routers.
type Granularity int

const (
	Interfaces Granularity = iota
	Routers
)

func (g Granularity) String() string {
	if g == Routers {
		return "routers"
	}
	return "interfaces"
}

// Node is one processed map node.
type Node struct {
	IP  uint32
	Loc geo.Point
	// ASN is the origin AS number, or 0 when unmapped.
	ASN int
}

// Link is a processed link between two nodes (indices into Nodes).
type Link struct {
	A, B     int32
	LengthMi float64
}

// Stats records the processing pipeline's discards.
type Stats struct {
	RawNodes          int
	RawLinks          int
	DiscardedDest     int // skitter: destination-list interfaces
	DiscardedPrivate  int
	DiscardedUnmapped int // geolocation failures
	DiscardedTies     int // mercator: location ties
	ASUnmapped        int // kept, ASN 0
}

// Dataset is a processed, geolocated, AS-labelled map.
type Dataset struct {
	Name        string // "skitter" or "mercator"
	Mapper      string // "ixmapper" or "edgescape"
	Granularity Granularity
	Nodes       []Node
	Links       []Link
	Stats       Stats
}

func isPrivate(ip uint32) bool { return ip>>24 == 10 }

// FromSkitter processes a Skitter collection with the given mapper and
// BGP table.
func FromSkitter(raw *skitter.RawGraph, mapper geoloc.Mapper, table *bgp.Table) *Dataset {
	d := &Dataset{Name: "skitter", Mapper: mapper.Name(), Granularity: Interfaces}
	d.Stats.RawNodes = len(raw.Nodes)
	d.Stats.RawLinks = len(raw.Links)

	index := make(map[uint32]int32, len(raw.Nodes))
	ips := make([]uint32, 0, len(raw.Nodes))
	for ip := range raw.Nodes {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })

	for _, ip := range ips {
		if _, isDest := raw.DestIPs[ip]; isDest {
			d.Stats.DiscardedDest++
			continue
		}
		if isPrivate(ip) {
			d.Stats.DiscardedPrivate++
			continue
		}
		loc, ok := mapper.Locate(ip)
		if !ok {
			d.Stats.DiscardedUnmapped++
			continue
		}
		asn, ok := table.OriginAS(ip)
		if !ok {
			asn = 0
			d.Stats.ASUnmapped++
		}
		index[ip] = int32(len(d.Nodes))
		d.Nodes = append(d.Nodes, Node{IP: ip, Loc: loc, ASN: asn})
	}
	d.addLinks(raw.Links, index)
	return d
}

// FromMercator processes a Mercator collection.
func FromMercator(res *mercator.Result, mapper geoloc.Mapper, table *bgp.Table) *Dataset {
	d := &Dataset{Name: "mercator", Mapper: mapper.Name(), Granularity: Routers}
	d.Stats.RawNodes = len(res.IfaceNodes)
	d.Stats.RawLinks = len(res.RouterLinks)

	// Group member interfaces by canonical router address.
	members := map[uint32][]uint32{}
	for ip, canon := range res.Alias {
		members[canon] = append(members[canon], ip)
	}

	canons := make([]uint32, 0, len(res.RouterNodes))
	for c := range res.RouterNodes {
		canons = append(canons, c)
	}
	sort.Slice(canons, func(i, j int) bool { return canons[i] < canons[j] })

	index := make(map[uint32]int32, len(canons))
	for _, canon := range canons {
		ifaces := members[canon]
		sort.Slice(ifaces, func(i, j int) bool { return ifaces[i] < ifaces[j] })

		allPrivate := true
		for _, ip := range ifaces {
			if !isPrivate(ip) {
				allPrivate = false
				break
			}
		}
		if allPrivate {
			d.Stats.DiscardedPrivate++
			continue
		}

		loc, ok, tie := majorityLocation(ifaces, mapper)
		if tie {
			d.Stats.DiscardedTies++
			continue
		}
		if !ok {
			d.Stats.DiscardedUnmapped++
			continue
		}
		asn := majorityAS(ifaces, table)
		if asn == 0 {
			d.Stats.ASUnmapped++
		}
		index[canon] = int32(len(d.Nodes))
		d.Nodes = append(d.Nodes, Node{IP: canon, Loc: loc, ASN: asn})
	}

	links := make(map[[2]uint32]struct{}, len(res.RouterLinks))
	for l := range res.RouterLinks {
		links[l] = struct{}{}
	}
	d.addLinks(links, index)
	return d
}

// majorityLocation maps each interface and returns the most commonly
// reported location; tie reports an exact tie for the top count (the
// paper discards those routers: 2.9% IxMapper, 2.5% EdgeScape).
func majorityLocation(ifaces []uint32, mapper geoloc.Mapper) (loc geo.Point, ok, tie bool) {
	counts := map[geo.LocKey]int{}
	points := map[geo.LocKey]geo.Point{}
	for _, ip := range ifaces {
		if isPrivate(ip) {
			continue
		}
		if p, mapped := mapper.Locate(ip); mapped {
			k := p.Key()
			counts[k]++
			points[k] = p
		}
	}
	if len(counts) == 0 {
		return geo.Point{}, false, false
	}
	// Find the top two counts deterministically.
	keys := make([]geo.LocKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		if keys[i].Lat != keys[j].Lat {
			return keys[i].Lat < keys[j].Lat
		}
		return keys[i].Lon < keys[j].Lon
	})
	if len(keys) > 1 && counts[keys[0]] == counts[keys[1]] {
		return geo.Point{}, false, true
	}
	return points[keys[0]], true, false
}

// majorityAS labels a router with the AS most commonly reported by its
// interfaces (ties break toward the lower AS number, deterministically).
func majorityAS(ifaces []uint32, table *bgp.Table) int {
	counts := map[int]int{}
	for _, ip := range ifaces {
		if isPrivate(ip) {
			continue
		}
		if asn, ok := table.OriginAS(ip); ok {
			counts[asn]++
		}
	}
	best, bestCount := 0, 0
	asns := make([]int, 0, len(counts))
	for asn := range counts {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for _, asn := range asns {
		if counts[asn] > bestCount {
			best, bestCount = asn, counts[asn]
		}
	}
	return best
}

func (d *Dataset) addLinks(raw map[[2]uint32]struct{}, index map[uint32]int32) {
	pairs := make([][2]uint32, 0, len(raw))
	for l := range raw {
		pairs = append(pairs, l)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, l := range pairs {
		a, okA := index[l[0]]
		b, okB := index[l[1]]
		if !okA || !okB {
			continue
		}
		d.Links = append(d.Links, Link{
			A: a, B: b,
			LengthMi: geo.DistanceMiles(d.Nodes[a].Loc, d.Nodes[b].Loc),
		})
	}
}
