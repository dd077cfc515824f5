package geoloc

import "geonet/internal/geo"

// IxMapper is the hostname-first mapping tool. Per the paper:
// "IxMapper always tries to use hostname based mapping, defaulting to
// DNS LOC records if available and finally to whois records."
type IxMapper struct {
	res Resources
	// WhoisGeocodeFailPermille is the per-org probability (in 1/1000)
	// that a whois address cannot be geocoded. The default leaves
	// ~1-1.5% of interfaces unmapped overall, matching Section III-B.
	WhoisGeocodeFailPermille int
}

// NewIxMapper builds the tool over the given resources.
func NewIxMapper(res Resources) *IxMapper {
	return &IxMapper{res: res, WhoisGeocodeFailPermille: 80}
}

// Name implements Mapper.
func (m *IxMapper) Name() string { return "ixmapper" }

// LocateMethod implements MethodMapper: one pass through the paper's
// three-step fallback, returning the location and the technique that
// produced it.
func (m *IxMapper) LocateMethod(ip uint32) (geo.Point, string, bool) {
	host, hasPTR := m.res.DNS.PTR(ip)
	if hasPTR {
		// 1. Hostname conventions.
		if p, ok := hostnameLookup(m.res.Dict, host); ok {
			return p, MethodHostname, true
		}
		// 2. DNS LOC.
		if loc, ok := m.res.DNS.LOCLookup(host); ok {
			return loc.Point(), MethodLOC, true
		}
	}
	// 3. Whois registrant address.
	if rec, ok := m.res.Whois.Lookup(ip); ok {
		if !geocodeFails(rec.OrgID, m.WhoisGeocodeFailPermille) {
			return rec.Loc, MethodWhois, true
		}
	}
	return geo.Point{}, "", false
}

// Locate implements Mapper.
func (m *IxMapper) Locate(ip uint32) (geo.Point, bool) {
	p, _, ok := m.LocateMethod(ip)
	return p, ok
}

// HostnameOnly is the ablation variant that uses hostname mapping
// alone, with no LOC or whois fallback.
type HostnameOnly struct {
	res Resources
}

// NewHostnameOnly builds the ablation mapper.
func NewHostnameOnly(res Resources) *HostnameOnly { return &HostnameOnly{res: res} }

// Name implements Mapper.
func (m *HostnameOnly) Name() string { return "hostname-only" }

// LocateMethod implements MethodMapper.
func (m *HostnameOnly) LocateMethod(ip uint32) (geo.Point, string, bool) {
	host, ok := m.res.DNS.PTR(ip)
	if !ok {
		return geo.Point{}, "", false
	}
	p, ok := hostnameLookup(m.res.Dict, host)
	if !ok {
		return geo.Point{}, "", false
	}
	return p, MethodHostname, true
}

// Locate implements Mapper.
func (m *HostnameOnly) Locate(ip uint32) (geo.Point, bool) {
	p, _, ok := m.LocateMethod(ip)
	return p, ok
}
