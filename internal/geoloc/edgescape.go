package geoloc

import (
	"geonet/internal/geo"
	"geonet/internal/netgen"
	"geonet/internal/rng"
)

// EdgeScape supplements hostname techniques with "internal ISP
// geographical information" (Section III-B): a per-/24 geography feed
// contributed by participating networks. Akamai's "many relationships
// with networks coupled with its extensive server deployment" translate
// here into high AS participation and a small per-prefix error rate.
type EdgeScape struct {
	res  Resources
	feed map[uint32]geo.Point // /24 base address -> city centre
}

// The feed's error model reflects the tool's paper-era accuracy:
// unmapped rates of 0.3-0.6% versus IxMapper's 1-1.5%.
const (
	// participationProb is the chance an AS contributes its geography.
	participationProb = 0.88
	// feedErrorProb is the chance a contributed /24 is attributed to a
	// different city of the same AS (stale or aggregated ISP data).
	feedErrorProb = 0.03
)

// NewEdgeScape synthesises the ISP feed from ground truth and wraps it
// with the hostname and whois fallbacks.
func NewEdgeScape(res Resources, in *netgen.Internet, s *rng.Stream) *EdgeScape {
	es := &EdgeScape{res: res, feed: make(map[uint32]geo.Point)}
	for _, as := range in.ASes {
		if !s.Bool(participationProb) {
			continue
		}
		for _, p := range as.Prefixes {
			for base := range p.Blocks24() {
				rid, ok := in.Prefix24Router[base]
				if !ok {
					continue
				}
				place := in.Routers[rid].Place
				if s.Bool(feedErrorProb) && len(as.Places) > 1 {
					place = as.Places[s.Intn(len(as.Places))]
				}
				es.feed[base] = in.World.Places[place].Loc
			}
		}
	}
	return es
}

// Name implements Mapper.
func (m *EdgeScape) Name() string { return "edgescape" }

// LocateMethod implements MethodMapper.
func (m *EdgeScape) LocateMethod(ip uint32) (geo.Point, string, bool) {
	// 1. ISP-contributed geography.
	if p, ok := m.feed[ip&^0xff]; ok {
		return p, MethodFeed, true
	}
	// 2. Hostname conventions.
	if host, ok := m.res.DNS.PTR(ip); ok {
		if p, ok := hostnameLookup(m.res.Dict, host); ok {
			return p, MethodHostname, true
		}
		if loc, ok := m.res.DNS.LOCLookup(host); ok {
			return loc.Point(), MethodLOC, true
		}
	}
	// 3. Whois.
	if rec, ok := m.res.Whois.Lookup(ip); ok {
		// EdgeScape's pipeline geocodes more reliably than the
		// whois-text path (half the failure rate).
		if !geocodeFails(rec.OrgID, 40) {
			return rec.Loc, MethodWhois, true
		}
	}
	return geo.Point{}, "", false
}

// Locate implements Mapper.
func (m *EdgeScape) Locate(ip uint32) (geo.Point, bool) {
	p, _, ok := m.LocateMethod(ip)
	return p, ok
}
