// Package netgen generates the ground-truth synthetic Internet that
// substitutes for the real network the paper measured. It produces
// autonomous systems with long-tailed sizes, routers placed in
// population centres, distance-dependent intra-AS links plus a minority
// of distance-independent long-haul links, interdomain peering, CIDR
// address allocation, ISP hostname conventions, DNS LOC publication and
// whois registration.
//
// Everything downstream of this package — the probing tools, the
// geolocation mappers, the BGP tables, the analysis — sees only what
// real measurement tools see (addresses, hostnames, ICMP replies,
// routing tables). The generator's parameters are inputs; the paper's
// findings must be *re-measured* through that pipeline.
package netgen

import (
	"fmt"
	"iter"
	"math"

	"geonet/internal/geo"
	"geonet/internal/population"
)

// Identifier types. Indices into the Internet's slices.
type (
	ASID     int32
	RouterID int32
	IfaceID  int32
	LinkID   int32
)

// None marks an absent identifier.
const None = -1

// ASType classifies an autonomous system's role in the hierarchy.
type ASType uint8

const (
	Tier1 ASType = iota // global backbone
	Transit
	Stub
)

func (t ASType) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	}
	return "unknown"
}

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Addr uint32
	Len  int
}

// Size is the number of addresses the prefix covers.
func (p Prefix) Size() uint32 {
	if p.Len >= 32 {
		return 1
	}
	return uint32(1) << (32 - uint(p.Len))
}

// Blocks24 yields the base address of every /24 the prefix covers, in
// ascending order. A prefix longer than /24 yields only its own base.
func (p Prefix) Blocks24() iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for base, end := p.Addr, p.Addr+p.Size(); base < end; base += 256 {
			if !yield(base) {
				return
			}
		}
	}
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip uint32) bool {
	if p.Len <= 0 {
		return true
	}
	mask := ^uint32(0) << (32 - uint(p.Len))
	return ip&mask == p.Addr&mask
}

// AS is a ground-truth autonomous system.
type AS struct {
	ID     ASID
	Number int // assigned AS number
	Type   ASType
	Econ   population.EconRegion
	// HomePlace indexes the World place hosting the AS headquarters.
	HomePlace int
	// Places are indices of World places where this AS has routers.
	Places  []int
	Routers []RouterID
	// Prefixes are the aggregates the AS originates in BGP.
	Prefixes []Prefix
	// Neighbors are the ASes this AS has interdomain links to.
	Neighbors []ASID

	// Naming and registration behaviour.
	Domain       string
	OrgName      string
	Scheme       NamingScheme
	PublishesLOC bool // publishes RFC 1876 LOC records
	IDSBlocks    bool // intrusion detection drops alias-resolution probes
}

// NamingScheme selects an ISP hostname convention.
type NamingScheme uint8

const (
	// SchemeSlotRoleCity produces names like
	// "so-5-2-0.xl1.nyc8.alter.net" (the paper's example).
	SchemeSlotRoleCity NamingScheme = iota
	// SchemeRoleDashCity produces "core3-lax.example.net".
	SchemeRoleDashCity
	// SchemeCityRole produces "nyc2-edge1.example.net".
	SchemeCityRole
	// SchemeCityName uses the full city name: "gw1.denver.example.net".
	SchemeCityName
	// SchemeOpaque embeds no geographic hint: "r1042.example.net".
	SchemeOpaque
)

// Router is a ground-truth router.
type Router struct {
	ID RouterID
	AS ASID
	// ASIndex is this router's position within its AS's Routers slice,
	// letting per-AS routing state use dense arrays.
	ASIndex int32
	Place   int // World place index
	Loc     geo.Point
	// Ifaces lists this router's interfaces (one per incident link,
	// plus possibly a host-facing stub).
	Ifaces []IfaceID
	// CanonicalIP is the source address used in ICMP Port Unreachable
	// replies — what Mercator's alias resolution keys on.
	CanonicalIP uint32
	// Unresponsive routers never send ICMP Time Exceeded ("*" hops).
	Unresponsive bool
	// BrokenAlias routers reply to UDP probes from the receiving
	// interface instead of the canonical address, defeating alias
	// resolution for them.
	BrokenAlias bool
}

// Iface is a ground-truth router interface.
type Iface struct {
	ID     IfaceID
	Router RouterID
	Link   LinkID // None for host-facing stub interfaces
	IP     uint32
	// Hostname is the PTR record content; empty when the ISP
	// registered no reverse DNS.
	Hostname string
	// Private marks a misconfigured RFC1918 address leaking into
	// traceroutes.
	Private bool
}

// Link is an undirected ground-truth link between two interfaces on
// different routers.
type Link struct {
	ID   LinkID
	A, B IfaceID
	// Inter marks an interdomain link (endpoints in different ASes).
	Inter bool
	// LengthMi is the great-circle distance between the two routers.
	LengthMi float64
}

// Internet is the complete ground truth.
//
// Routers are laid out in AS-partition order: each AS's routers occupy
// one contiguous ascending RouterID range (AS.Routers[k] ==
// AS.Routers[0]+k, with Router.ASIndex == k). Build constructs them
// that way, CheckASPartition verifies it, and netsim's compressed
// forwarding fabric relies on it to index per-AS state by
// RouterID-minus-base instead of through the Routers slice.
type Internet struct {
	World   *population.World
	ASes    []AS
	Routers []Router
	Ifaces  []Iface
	Links   []Link

	// ByIP resolves an interface address to its interface.
	ByIP map[uint32]IfaceID
	// Prefix24Router maps each allocated /24 (by its base address) to
	// the router that "homes" destinations probed inside it.
	Prefix24Router map[uint32]RouterID

	// SkitterMonitors are routers hosting Skitter monitors;
	// MercatorHost is the single router hosting the Mercator probe.
	SkitterMonitors []RouterID
	MercatorHost    RouterID
}

// CheckASPartition verifies the AS-partition ordering invariant: every
// AS's routers form one contiguous ascending RouterID range, with
// Router.AS and Router.ASIndex consistent, and every router owned by
// exactly one AS. Consumers that exploit the layout (netsim's CSR
// forwarding fabric) call this at compile time so a violated invariant
// fails loudly instead of corrupting routing.
func (in *Internet) CheckASPartition() error {
	owned := 0
	for ai := range in.ASes {
		rs := in.ASes[ai].Routers
		if len(rs) == 0 {
			continue
		}
		base := rs[0]
		for k, r := range rs {
			if r != base+RouterID(k) {
				return fmt.Errorf("netgen: AS %d routers not contiguous: Routers[%d] = %d, want %d",
					ai, k, r, base+RouterID(k))
			}
			if in.Routers[r].AS != ASID(ai) || in.Routers[r].ASIndex != int32(k) {
				return fmt.Errorf("netgen: router %d has AS %d index %d, want AS %d index %d",
					r, in.Routers[r].AS, in.Routers[r].ASIndex, ai, k)
			}
		}
		owned += len(rs)
	}
	if owned != len(in.Routers) {
		return fmt.Errorf("netgen: %d routers owned by ASes, %d exist", owned, len(in.Routers))
	}
	return nil
}

// RouterOf returns the router owning an interface.
func (in *Internet) RouterOf(i IfaceID) *Router { return &in.Routers[in.Ifaces[i].Router] }

// ASOf returns the AS owning a router.
func (in *Internet) ASOf(r RouterID) *AS { return &in.ASes[in.Routers[r].AS] }

// PeerIface returns the interface at the other end of an interface's
// link, or None for stub interfaces.
func (in *Internet) PeerIface(i IfaceID) IfaceID {
	l := in.Ifaces[i].Link
	if l == None {
		return None
	}
	link := in.Links[l]
	if link.A == i {
		return link.B
	}
	return link.A
}

// Config controls generation. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	Seed int64
	// Scale multiplies the paper-derived regional interface budgets.
	// 1.0 would approximate the paper's 563k-interface Skitter world;
	// the default 0.1 builds a ~60k-interface world that runs the full
	// pipeline in seconds.
	Scale float64

	// MeanExtraLinksPerRouter adds redundancy beyond the spanning
	// attachment (average extra links per router).
	MeanExtraLinksPerRouter float64
	// DistanceIndependentFraction is the probability an extra link is
	// chosen uniformly (distance-independent) instead of by the
	// Waxman-style kernel — the paper measures 5-25% of links above
	// the distance-sensitivity limit (Table V).
	DistanceIndependentFraction float64
	// UniformPlacement, when true, ignores population when choosing AS
	// home places and when placing routers (the Waxman assumption the
	// paper refutes): every place of a region is equally attractive.
	// Used by the scenario-sweep ablations.
	UniformPlacement bool
	// ASCountFactor reshapes the AS size distribution without changing
	// the total router budget: the maximum AS size is divided by it, so
	// values > 1 split each region's budget into more, smaller ASes and
	// values < 1 concentrate it into fewer, larger ones. <= 0 means 1
	// (the default distribution).
	ASCountFactor float64

	// DecayMiles is the per-econ-region distance-preference decay
	// length for intra-AS link formation.
	DecayMiles map[population.EconRegion]float64

	// NumSkitterMonitors is how many Skitter monitors to place (the
	// paper's dataset unions 19).
	NumSkitterMonitors int
}

// DefaultConfig returns the configuration used throughout the
// reproduction.
func DefaultConfig() Config {
	return Config{
		Seed:                        1,
		Scale:                       0.1,
		MeanExtraLinksPerRouter:     0.55,
		DistanceIndependentFraction: 0.08,
		DecayMiles: map[population.EconRegion]float64{
			population.EconUSA:           140,
			population.EconWesternEurope: 80,
			population.EconJapan:         115,
			population.EconAfrica:        120,
			population.EconSouthAmerica:  120,
			population.EconMexico:        100,
			population.EconAustralia:     130,
			population.EconRestOfWorld:   110,
		},
		NumSkitterMonitors: 19,
	}
}

// Validate checks a configuration for values that would generate a
// nonsensical world (a scale that is not finite and positive, a
// fraction outside [0, 1], non-positive decay lengths). It is the one
// check on a world's configuration: core.Run calls it before building
// anything, and so do the commands and the scenario sweep for every
// scale they accept, so a bad value fails fast instead of producing a
// silently degenerate topology. Build expects a valid Config.
func (c Config) Validate() error {
	if !(c.Scale > 0) || math.IsInf(c.Scale, 1) {
		return fmt.Errorf("netgen: scale must be finite and positive, got %g", c.Scale)
	}
	if c.MeanExtraLinksPerRouter < 0 {
		return fmt.Errorf("netgen: mean extra links per router must be >= 0, got %g", c.MeanExtraLinksPerRouter)
	}
	if f := c.DistanceIndependentFraction; f < 0 || f > 1 {
		return fmt.Errorf("netgen: distance-independent fraction must be in [0, 1], got %g", f)
	}
	for econ, d := range c.DecayMiles {
		if d <= 0 {
			return fmt.Errorf("netgen: decay miles for %s must be positive, got %g", econ, d)
		}
	}
	if c.NumSkitterMonitors < 0 {
		return fmt.Errorf("netgen: skitter monitor count must be >= 0 (0 = default), got %d", c.NumSkitterMonitors)
	}
	if c.ASCountFactor < 0 {
		return fmt.Errorf("netgen: AS count factor must be >= 0 (0 = default), got %g", c.ASCountFactor)
	}
	return nil
}

// regionIfaceBudget returns the paper's Skitter interface counts per
// economic region (Table III, plus the Rest-of-World remainder implied
// by the World row), which Scale multiplies to size the ground truth.
// The 1.15 slack covers interfaces the probing tools will fail to
// discover or the mappers will fail to locate.
func regionIfaceBudget(scale float64) map[population.EconRegion]float64 {
	paper := map[population.EconRegion]float64{
		population.EconAfrica:        8379,
		population.EconSouthAmerica:  10131,
		population.EconMexico:        4361,
		population.EconWesternEurope: 95993,
		population.EconJapan:         37649,
		population.EconAustralia:     18277,
		population.EconUSA:           282048,
		population.EconRestOfWorld:   563521 - (8379 + 10131 + 4361 + 95993 + 37649 + 18277 + 282048),
	}
	out := make(map[population.EconRegion]float64, len(paper))
	for k, v := range paper {
		out[k] = v * scale * 1.15
	}
	return out
}
