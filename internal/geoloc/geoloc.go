// Package geoloc implements the two geographic mapping tools of
// Section III-B:
//
//   - IxMapper: hostname-convention mapping first (city name or airport
//     code tokens embedded in router names), then RFC 1876 DNS LOC
//     records, then whois registrant addresses — in exactly the paper's
//     fallback order.
//   - EdgeScape: a per-prefix geography feed contributed by
//     participating ISPs (sampled from ground truth at city granularity
//     with a small error model), with hostname and whois fallbacks.
//
// Both tools return city-granularity locations, matching Padmanabhan
// and Subramanian's observation (cited by the paper) that hostname
// mapping is "accurate up to the granularity of a city".
package geoloc

import (
	"strings"

	"geonet/internal/dnsdb"
	"geonet/internal/geo"
	"geonet/internal/whois"
)

// Mapper resolves an IPv4 address to a geographic location.
type Mapper interface {
	// Name identifies the tool ("ixmapper" or "edgescape").
	Name() string
	// Locate returns the mapped location, or ok=false when the tool
	// cannot place the address.
	Locate(ip uint32) (geo.Point, bool)
}

// Method names attributing an answer to the technique that produced
// it. The empty string means the tool could not place the address.
const (
	MethodFeed     = "feed"     // EdgeScape's ISP-contributed per-prefix geography
	MethodHostname = "hostname" // hostname naming conventions
	MethodLOC      = "loc"      // RFC 1876 DNS LOC records
	MethodWhois    = "whois"    // whois registrant address
)

// MethodMapper is a Mapper that also attributes each answer to the
// technique that produced it. LocateMethod is the single resolution
// path: Locate is derived from it, so
// attribution can never disagree with mappability (the invariant
// TestMethodLocateAgreeEveryInterface locks in). The serving layer
// (internal/geoserve) compiles snapshots through this interface.
type MethodMapper interface {
	Mapper
	// LocateMethod returns the mapped location, the Method* constant
	// that produced it, and ok=false (with an empty method) when the
	// tool cannot place the address.
	LocateMethod(ip uint32) (geo.Point, string, bool)
}

// Resources bundles the external data sources mappers consult.
type Resources struct {
	DNS   *dnsdb.DB
	Whois *whois.Registry
	// Dict maps hostname tokens (airport codes, squashed city names)
	// to city-centre coordinates.
	Dict map[string]geo.Point
}

// ccSecondLevel recognises two-label public suffixes ("co.uk", "ne.jp",
// "net.au", ...) so domain labels are not mistaken for host labels.
var ccSecondLevel = map[string]bool{
	"co": true, "ne": true, "ad": true, "ac": true,
	"com": true, "net": true, "org": true, "gov": true,
}

var ccTLD = map[string]bool{
	"uk": true, "jp": true, "au": true, "mx": true, "br": true,
	"za": true, "eg": true, "ar": true, "us": true, "de": true,
	"fr": true, "nl": true, "it": true, "es": true, "eu": true,
}

// HostLabels splits a hostname into host-part labels (domain labels
// removed), ordered nearest-the-domain first — the position ISP
// conventions put the city token in.
func HostLabels(host string) []string {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	labels := strings.Split(host, ".")
	domainLen := 2
	if len(labels) >= 3 && ccTLD[labels[len(labels)-1]] && ccSecondLevel[labels[len(labels)-2]] {
		domainLen = 3
	}
	if len(labels) <= domainLen {
		return nil
	}
	hostPart := labels[:len(labels)-domainLen]
	// Reverse: nearest the domain first.
	out := make([]string, 0, len(hostPart))
	for i := len(hostPart) - 1; i >= 0; i-- {
		out = append(out, hostPart[i])
	}
	return out
}

// TokenCandidates expands one label into lookup candidates: the label
// itself, the label with trailing digits stripped ("nyc8" -> "nyc"),
// and each dash-separated part likewise ("core3-lax" -> "lax").
func TokenCandidates(label string) []string {
	var out []string
	add := func(tok string) {
		if len(tok) >= 3 {
			out = append(out, tok)
		}
	}
	add(label)
	add(stripDigits(label))
	if strings.Contains(label, "-") {
		for _, part := range strings.Split(label, "-") {
			add(part)
			add(stripDigits(part))
		}
	}
	return out
}

func stripDigits(s string) string {
	end := len(s)
	for end > 0 && s[end-1] >= '0' && s[end-1] <= '9' {
		end--
	}
	return s[:end]
}

// hostnameLookup applies convention-based mapping: scan host labels
// nearest-the-domain first, trying each token candidate against the
// dictionary.
func hostnameLookup(dict map[string]geo.Point, host string) (geo.Point, bool) {
	for _, label := range HostLabels(host) {
		for _, tok := range TokenCandidates(label) {
			if p, ok := dict[tok]; ok {
				return p, true
			}
		}
	}
	return geo.Point{}, false
}

// geocodeFails deterministically marks a fraction of whois orgs as
// un-geocodable (free-text addresses that real pipelines fail to
// parse). The hash keys on the org so all of an AS's addresses fail
// together, as they would in practice.
func geocodeFails(orgID string, failPermille int) bool {
	h := uint32(2166136261)
	for i := 0; i < len(orgID); i++ {
		h ^= uint32(orgID[i])
		h *= 16777619
	}
	return int(h%1000) < failPermille
}
