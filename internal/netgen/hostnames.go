package netgen

import (
	"fmt"

	"geonet/internal/rng"
)

// ISP naming-material tables. Roles mirror the conventions the paper's
// example ("0.so-5-2-0.XL1.NYC8.ALTER.NET") comes from.
var (
	coreRoles = []string{"xl", "core", "bb", "cr", "p"}
	edgeRoles = []string{"edge", "gw", "ar", "br", "dr"}
	slotKinds = []string{"so", "ge", "fa", "pos", "atm", "srp"}

	orgSyllables = []string{
		"alter", "ver", "net", "tele", "glob", "ix", "path", "wave",
		"link", "span", "core", "uni", "inter", "trans", "metro", "sky",
		"terra", "nova", "apex", "omni", "digi", "byte", "grid", "volt",
	}
)

// Behavioural fault rates of ISP naming and registration.
const (
	noPTRProb        = 0.05 // interface has no hostname
	opaqueNamingProb = 0.15 // AS uses geography-free names
	locPublishProb   = 0.10 // AS publishes DNS LOC
	idsBlockProb     = 0.15 // AS drops alias probes
)

// econTLDs gives plausible top-level domains per economic region.
func econTLDs(econ int) []string {
	switch econ {
	case 0: // Africa
		return []string{"net", "co.za", "com.eg", "net"}
	case 1: // South America
		return []string{"net.br", "com.ar", "net", "com"}
	case 2: // Mexico
		return []string{"net.mx", "com.mx", "net"}
	case 3: // W. Europe
		return []string{"net", "de", "fr", "co.uk", "nl", "it", "es", "eu"}
	case 4: // Japan
		return []string{"ne.jp", "ad.jp", "co.jp", "net"}
	case 5: // Australia
		return []string{"net.au", "com.au", "net"}
	case 6: // USA
		return []string{"net", "net", "net", "com", "org", "us"}
	default:
		return []string{"net", "com"}
	}
}

// assignHostnames gives every AS a domain, org name and naming scheme,
// then names every interface according to that scheme. A fraction of
// ASes use opaque (geography-free) names and a fraction of interfaces
// get no PTR record at all; both fractions come from Config.
func (b *builder) assignHostnames(s *rng.Stream) {
	domains := map[string]bool{}
	for ai := range b.in.ASes {
		as := &b.in.ASes[ai]
		rs := s.SplitN("as", ai)

		// Organisation and domain. The syllable space saturates in big
		// worlds, so after a few collisions the AS index (unique by
		// construction) disambiguates — real ISP names collide too
		// ("globalnet" exists in every country).
		for attempt := 0; ; attempt++ {
			a := orgSyllables[rs.Intn(len(orgSyllables))]
			c := orgSyllables[rs.Intn(len(orgSyllables))]
			name := a + c
			if attempt >= 4 {
				name = fmt.Sprintf("%s%d", name, ai)
			}
			tlds := econTLDs(int(as.Econ))
			dom := fmt.Sprintf("%s.%s", name, tlds[rs.Intn(len(tlds))])
			if !domains[dom] {
				domains[dom] = true
				as.Domain = dom
				as.OrgName = name
				break
			}
		}

		// Naming scheme.
		if rs.Bool(opaqueNamingProb) {
			as.Scheme = SchemeOpaque
		} else {
			as.Scheme = NamingScheme(rs.Intn(4))
		}
		as.PublishesLOC = rs.Bool(locPublishProb)
		as.IDSBlocks = rs.Bool(idsBlockProb)

		// Per-city-token router sequence numbers give the "nyc8" style
		// disambiguators. Keying by token (not place) keeps names
		// unique even when two towns share a code.
		seqAtCode := map[string]int{}
		routerSeq := map[RouterID]int{}
		for _, rid := range as.Routers {
			code := b.world.Places[b.in.Routers[rid].Place].Code
			seqAtCode[code]++
			routerSeq[rid] = seqAtCode[code]
		}

		for _, rid := range as.Routers {
			r := &b.in.Routers[rid]
			city := b.world.Places[r.Place]
			seq := routerSeq[rid]
			role := edgeRoles[rs.Intn(len(edgeRoles))]
			if len(r.Ifaces) >= 4 {
				role = coreRoles[rs.Intn(len(coreRoles))]
			}
			for slot, ifid := range r.Ifaces {
				if rs.Bool(noPTRProb) {
					continue // no reverse DNS for this interface
				}
				var name string
				switch as.Scheme {
				case SchemeSlotRoleCity:
					name = fmt.Sprintf("%s-%d-%d-0.%s%d.%s%d.%s",
						slotKinds[rs.Intn(len(slotKinds))], slot/4, slot%4,
						role, 1+slot%4, city.Code, seq, as.Domain)
				case SchemeRoleDashCity:
					name = fmt.Sprintf("%s%d-%s.%s", role, seq, city.Code, as.Domain)
				case SchemeCityRole:
					name = fmt.Sprintf("%s%d-%s%d.%s", city.Code, seq, role, 1+slot, as.Domain)
				case SchemeCityName:
					name = fmt.Sprintf("%s%d.%s.%s", role, seq, city.Name, as.Domain)
				case SchemeOpaque:
					name = fmt.Sprintf("r%d-%d.%s", rid, slot, as.Domain)
				}
				b.in.Ifaces[ifid].Hostname = name
			}
		}
	}
}
