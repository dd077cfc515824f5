// Package churn makes continuous topology churn a first-class,
// reproducible scenario: a Churner owns overlays over a compiled
// serving source (the allocated /24s, the public interface addresses,
// the BGP table, per-AS footprints) and emits deterministic seeded
// streams of churn events — BGP announces and withdraws of /24
// more-specifics, allocation growth, interface appearance, monitor
// loss degrading footprints. Each step materialises a complete
// geoserve.Source plus the dirty /24 set the events touched, ready for
// either a from-scratch geoserve.Compile or an incremental
// geoserve.CompileDelta; the golden churn corpus pins the two
// byte-identical at every step. A step costs what the source's two
// address sets, its BGP table and its footprint lists cost to copy:
// the ground truth (*netgen.Internet) is read once, at New, for the AS
// numbers events draw, and never copied.
//
// Determinism discipline matches the rest of the repo: all randomness
// flows from one rng.Stream seeded at construction, no wall-clock
// anywhere, and the same (source, seed, step sizes) replay the same
// event stream on any machine.
package churn

import (
	"fmt"
	"slices"

	"geonet/internal/analysis"
	"geonet/internal/bgp"
	"geonet/internal/geoserve"
	"geonet/internal/netgen"
	"geonet/internal/rng"
)

// Kind is a churn event type.
type Kind uint8

const (
	// Announce re-originates an allocated /24 as a more-specific from a
	// (usually different) AS — multihoming, traffic engineering, or a
	// stale/hijacked route, the paper's known BGP mapping error source.
	Announce Kind = iota
	// Withdraw retracts a previously announced more-specific; origin
	// attribution for the /24 falls back to the covering aggregate.
	Withdraw
	// Grow allocates a fresh /24 to an AS and originates it — address
	// space growth between snapshot epochs.
	Grow
	// IfaceAdd brings a new interface address up inside an existing
	// allocated /24. It is deliberately NOT added to the dirty set:
	// CompileDelta must detect interface churn from the sources
	// themselves (the block's representative generic-host address may
	// shift), and the golden corpus pins that it does.
	IfaceAdd
	// MonitorLoss loses a measurement monitor for one mapper: the
	// affected AS's footprint disappears from that mapper, degrading
	// the confidence radius of every answer attributed to it.
	MonitorLoss

	numKinds
)

var kindNames = [numKinds]string{"announce", "withdraw", "grow", "iface-add", "monitor-loss"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one applied churn event.
type Event struct {
	Kind Kind `json:"kind"`
	// Base is the affected /24 base address (Announce, Withdraw, Grow,
	// IfaceAdd).
	Base uint32 `json:"base,omitempty"`
	// Addr is the interface address brought up (IfaceAdd).
	Addr uint32 `json:"addr,omitempty"`
	// Origin is the announced origin AS number (Announce, Grow).
	Origin int `json:"origin,omitempty"`
	// Mapper indexes the mapper whose monitor was lost (MonitorLoss).
	Mapper int `json:"mapper,omitempty"`
	// ASN is the AS whose footprint degraded (MonitorLoss).
	ASN int `json:"asn,omitempty"`
}

// Step is one churn step: the events applied, the fully materialised
// churned source, and the /24 bases whose routes or allocations the
// events explicitly touched. Dirty deliberately excludes IfaceAdd and
// MonitorLoss effects — CompileDelta detects those from the sources.
type Step struct {
	N      int             `json:"n"`
	Events []Event         `json:"events"`
	Source geoserve.Source `json:"-"`
	Dirty  []uint32        `json:"dirty"`
}

// Churner generates the deterministic event stream. Not safe for
// concurrent use; each Next mutates internal overlay state and
// materialises an independent Source (safe to keep and compile later).
type Churner struct {
	r       *rng.Stream
	mappers []geoserve.NamedMapper
	build   geoserve.BuildInfo
	// asns are the AS numbers in netgen's AS order: the origins that
	// announce and grow events draw from.
	asns []int

	// Route overlay: the base table's routes captured once, plus
	// origination for grown allocations, plus announced more-specifics
	// (in announce order, so withdraw picks are deterministic).
	baseRoutes  []bgp.Route
	grownRoutes []bgp.Route
	extras      map[uint32]int
	extraOrder  []uint32

	// Footprint overlay: current per-mapper footprint lists.
	footprints [][]analysis.ASFootprint

	// alloc24 is every allocated /24 base, ascending: the source's,
	// then grown blocks appended above them. Event targets are drawn
	// from it. ips is every public interface address, ascending, with
	// added interfaces inserted in place.
	alloc24   []uint32
	ips       []uint32
	nextAlloc uint32
	step      int
}

// Growth stops at the start of class D (multicast) and E space, and
// skips the blocks no registry allocates: netgen's private pool 10/8
// and the other RFC 1918 blocks, and loopback. reserved is ascending.
const spaceEnd = 224 << 24

var reserved = [...]netgen.Prefix{
	{Addr: 10 << 24, Len: 8},
	{Addr: 127 << 24, Len: 8},
	{Addr: 172<<24 | 16<<16, Len: 12},
	{Addr: 192<<24 | 168<<16, Len: 16},
}

// usable returns the first /24 base at or above a that no reserved
// block covers.
func usable(a uint32) uint32 {
	for _, r := range reserved {
		if r.Contains(a) {
			a = r.Addr + r.Size()
		}
	}
	return a
}

// New builds a Churner over src (typically core.Pipeline.ServeSource,
// whose ground truth in is read only for its AS numbers). Neither is
// mutated; all churn applies to overlays.
func New(in *netgen.Internet, src geoserve.Source, seed int64) (*Churner, error) {
	if in == nil || len(in.ASes) == 0 || src.Table == nil || len(src.Mappers) == 0 {
		return nil, fmt.Errorf("churn: missing ASes, table or mappers")
	}
	if len(src.Prefixes) == 0 {
		return nil, fmt.Errorf("churn: source allocates no /24s")
	}
	c := &Churner{
		r:       rng.New(seed).Split("churn"),
		mappers: src.Mappers,
		build:   src.Build,
		asns:    make([]int, len(in.ASes)),
		extras:  map[uint32]int{},
		alloc24: slices.Clone(src.Prefixes),
		ips:     slices.Clone(src.IPs),
	}
	for ai := range in.ASes {
		c.asns[ai] = in.ASes[ai].Number
	}
	src.Table.Walk(func(rt bgp.Route) { c.baseRoutes = append(c.baseRoutes, rt) })
	// The min keeps a source that already ends at the top of the space
	// from wrapping the cursor round to 0.0.0.0.
	c.nextAlloc = usable(min(c.alloc24[len(c.alloc24)-1], spaceEnd-256) + 256)
	c.footprints = make([][]analysis.ASFootprint, len(src.Mappers))
	for m, nm := range src.Mappers {
		c.footprints[m] = slices.Clone(nm.Footprints)
	}
	return c, nil
}

// Next applies `events` churn events and returns the resulting step.
func (c *Churner) Next(events int) (Step, error) {
	if events <= 0 {
		events = 1
	}
	c.step++
	st := Step{N: c.step}
	dirty := map[uint32]struct{}{}
	for i := 0; i < events; i++ {
		ev, touched, ok := c.applyOne()
		if !ok {
			continue // no-op draw (e.g. every address in the block taken)
		}
		st.Events = append(st.Events, ev)
		for _, b := range touched {
			dirty[b] = struct{}{}
		}
	}
	st.Dirty = make([]uint32, 0, len(dirty))
	for b := range dirty {
		st.Dirty = append(st.Dirty, b)
	}
	slices.Sort(st.Dirty)
	st.Source = c.materialize()
	return st, nil
}

// applyOne draws one event kind and applies it to the overlays,
// returning the event and the /24 bases to mark dirty.
func (c *Churner) applyOne() (Event, []uint32, bool) {
	switch k := c.drawKind(); k {
	case Announce, Withdraw:
		if k == Announce || len(c.extraOrder) == 0 {
			// A withdraw with nothing announced announces instead, so
			// early steps still carry the drawn number of events.
			base := c.alloc24[c.r.Intn(len(c.alloc24))]
			origin := c.asns[c.r.Intn(len(c.asns))]
			if _, seen := c.extras[base]; !seen {
				c.extraOrder = append(c.extraOrder, base)
			}
			c.extras[base] = origin
			return Event{Kind: Announce, Base: base, Origin: origin}, []uint32{base}, true
		}
		i := c.r.Intn(len(c.extraOrder))
		base := c.extraOrder[i]
		c.extraOrder = slices.Delete(c.extraOrder, i, i+1)
		delete(c.extras, base)
		return Event{Kind: Withdraw, Base: base}, []uint32{base}, true
	case Grow:
		if c.nextAlloc >= spaceEnd { // the unicast space is used up
			return Event{}, nil, false
		}
		origin := c.asns[c.r.Intn(len(c.asns))]
		base := c.nextAlloc
		c.nextAlloc = usable(base + 256)
		c.grownRoutes = append(c.grownRoutes, bgp.Route{Addr: base, Len: 24, Origin: origin})
		c.alloc24 = append(c.alloc24, base)
		return Event{Kind: Grow, Base: base, Origin: origin}, []uint32{base}, true
	case IfaceAdd:
		base := c.alloc24[c.r.Intn(len(c.alloc24))]
		// The block's representative generic host, so occupying it
		// forces the representative to shift.
		addr := geoserve.GenericHost(c.ips, base)
		i, taken := slices.BinarySearch(c.ips, addr)
		if taken { // every address in the block is an interface's
			return Event{}, nil, false
		}
		c.ips = slices.Insert(c.ips, i, addr)
		// Dirty stays empty on purpose: CompileDelta must notice the
		// new exact address (and the shifted representative host) from
		// the address sets alone.
		return Event{Kind: IfaceAdd, Base: base, Addr: addr}, nil, true
	case MonitorLoss:
		m := c.r.Intn(len(c.footprints))
		if len(c.footprints[m]) == 0 {
			return Event{}, nil, false
		}
		i := c.r.Intn(len(c.footprints[m]))
		fp := c.footprints[m][i]
		c.footprints[m] = slices.Delete(c.footprints[m], i, i+1)
		// Dirty stays empty: CompileDelta diffs footprint tables itself
		// and patches affected radii.
		return Event{Kind: MonitorLoss, Mapper: m, ASN: fp.ASN}, nil, true
	default:
		return Event{}, nil, false
	}
}

// drawKind picks an event kind with fixed weights: announce-heavy, as
// in real BGP churn, with the rarer structural events mixed in.
func (c *Churner) drawKind() Kind {
	switch n := c.r.Intn(100); {
	case n < 35:
		return Announce
	case n < 55:
		return Withdraw
	case n < 75:
		return Grow
	case n < 90:
		return IfaceAdd
	default:
		return MonitorLoss
	}
}

// materialize assembles an independent Source from the overlays. It
// owns copies of the two address sets and a fresh BGP table, so later
// steps, which insert into and append to the overlays, never change an
// issued Step.
func (c *Churner) materialize() geoserve.Source {
	table := &bgp.Table{}
	for _, rt := range c.baseRoutes {
		table.Insert(rt)
	}
	for _, rt := range c.grownRoutes {
		table.Insert(rt)
	}
	for _, b := range c.extraOrder {
		table.Insert(bgp.Route{Addr: b, Len: 24, Origin: c.extras[b]})
	}

	mappers := make([]geoserve.NamedMapper, len(c.mappers))
	for m, nm := range c.mappers {
		mappers[m] = geoserve.NamedMapper{Mapper: nm.Mapper, Footprints: slices.Clone(c.footprints[m])}
	}
	return geoserve.Source{
		Prefixes: slices.Clone(c.alloc24),
		IPs:      slices.Clone(c.ips),
		Table:    table,
		Mappers:  mappers,
		Build:    c.build,
	}
}
