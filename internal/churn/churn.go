// Package churn makes continuous topology churn a first-class,
// reproducible scenario: a Churner owns a copy-on-write view of a
// compiled serving source (ground-truth allocation, BGP table, per-AS
// footprints) and emits deterministic seeded streams of churn events —
// BGP announces and withdraws of /24 more-specifics, allocation
// growth, interface appearance, monitor loss degrading footprints.
// Each step materialises a complete geoserve.Source plus the dirty /24
// set the events touched, ready for either a from-scratch
// geoserve.Compile or an incremental geoserve.CompileDelta; the golden
// churn corpus pins the two byte-identical at every step.
//
// Determinism discipline matches the rest of the repo: all randomness
// flows from one rng.Stream seeded at construction, no wall-clock
// anywhere, and the same (source, seed, step sizes) replay the same
// event stream on any machine.
package churn

import (
	"fmt"
	"maps"
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
	r    *rng.Stream
	base geoserve.Source

	// Route overlay: the base table's routes captured once, plus
	// origination for grown allocations, plus announced more-specifics
	// (in announce order, so withdraw picks are deterministic).
	baseRoutes  []bgp.Route
	grownRoutes []bgp.Route
	extras      map[uint32]int
	extraOrder  []uint32

	// Allocation overlay: grown prefixes per AS index, added
	// interfaces, and the set of addresses they occupy.
	grown      map[int][]netgen.Prefix
	added      []netgen.Iface
	addedTaken map[uint32]bool

	// Footprint overlay: current per-mapper footprint lists.
	footprints [][]analysis.ASFootprint

	// alloc24 is every allocated /24 base, ascending at construction,
	// grown blocks appended; event targets are drawn from it.
	alloc24   []uint32
	nextAlloc uint32
	step      int
}

// New builds a Churner over src (typically core.Pipeline.ServeSource).
// src itself is never mutated; all churn applies to overlays.
func New(src geoserve.Source, seed int64) (*Churner, error) {
	if src.Internet == nil || src.Table == nil || len(src.Mappers) == 0 {
		return nil, fmt.Errorf("churn: source missing internet, table or mappers")
	}
	c := &Churner{
		r:          rng.New(seed).Split("churn"),
		base:       src,
		extras:     map[uint32]int{},
		grown:      map[int][]netgen.Prefix{},
		addedTaken: map[uint32]bool{},
	}
	src.Table.Walk(func(rt bgp.Route) { c.baseRoutes = append(c.baseRoutes, rt) })
	for ai := range src.Internet.ASes {
		for _, p := range src.Internet.ASes[ai].Prefixes {
			c.alloc24 = slices.AppendSeq(c.alloc24, p.Blocks24())
		}
	}
	if len(c.alloc24) == 0 {
		return nil, fmt.Errorf("churn: source allocates no /24s")
	}
	slices.Sort(c.alloc24)
	c.alloc24 = slices.Compact(c.alloc24)
	c.nextAlloc = c.alloc24[len(c.alloc24)-1] + 256
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
	var err error
	if st.Source, err = c.materialize(); err != nil {
		return Step{}, err
	}
	return st, nil
}

// applyOne draws one event kind and applies it to the overlays,
// returning the event and the /24 bases to mark dirty.
func (c *Churner) applyOne() (Event, []uint32, bool) {
	in := c.base.Internet
	switch k := c.drawKind(); k {
	case Announce:
		base := c.alloc24[c.r.Intn(len(c.alloc24))]
		origin := in.ASes[c.r.Intn(len(in.ASes))].Number
		if _, seen := c.extras[base]; !seen {
			c.extraOrder = append(c.extraOrder, base)
		}
		c.extras[base] = origin
		return Event{Kind: Announce, Base: base, Origin: origin}, []uint32{base}, true
	case Withdraw:
		if len(c.extraOrder) == 0 {
			// Nothing announced yet: announce instead, so early steps
			// still carry the drawn number of events.
			base := c.alloc24[c.r.Intn(len(c.alloc24))]
			origin := in.ASes[c.r.Intn(len(in.ASes))].Number
			c.extraOrder = append(c.extraOrder, base)
			c.extras[base] = origin
			return Event{Kind: Announce, Base: base, Origin: origin}, []uint32{base}, true
		}
		i := c.r.Intn(len(c.extraOrder))
		base := c.extraOrder[i]
		c.extraOrder = slices.Delete(c.extraOrder, i, i+1)
		delete(c.extras, base)
		return Event{Kind: Withdraw, Base: base}, []uint32{base}, true
	case Grow:
		if c.nextAlloc < 256 { // wrapped the address space
			return Event{}, nil, false
		}
		ai := c.r.Intn(len(in.ASes))
		base := c.nextAlloc
		c.nextAlloc += 256
		c.grown[ai] = append(c.grown[ai], netgen.Prefix{Addr: base, Len: 24})
		c.grownRoutes = append(c.grownRoutes, bgp.Route{Addr: base, Len: 24, Origin: in.ASes[ai].Number})
		c.alloc24 = append(c.alloc24, base)
		return Event{Kind: Grow, Base: base, Origin: in.ASes[ai].Number}, []uint32{base}, true
	case IfaceAdd:
		base := c.alloc24[c.r.Intn(len(c.alloc24))]
		addr, ok := c.highestFree(base)
		if !ok {
			return Event{}, nil, false
		}
		id := netgen.IfaceID(len(in.Ifaces) + len(c.added))
		c.added = append(c.added, netgen.Iface{ID: id, IP: addr})
		c.addedTaken[addr] = true
		// Dirty stays empty on purpose: CompileDelta must notice the
		// new exact address (and the shifted representative host) from
		// the interface tables alone.
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

// highestFree finds the highest unoccupied address in the /24 — the
// block's current representative generic-host address, so occupying it
// forces the representative to shift.
func (c *Churner) highestFree(base uint32) (uint32, bool) {
	for off := uint32(255); ; off-- {
		addr := base + off
		_, taken := c.base.Internet.ByIP[addr]
		if !taken && !c.addedTaken[addr] {
			return addr, true
		}
		if off == 0 {
			return 0, false
		}
	}
}

// materialize assembles an independent Source from the base plus the
// overlays. The returned Internet shares immutable ground truth
// (routers, links, world) with the base but owns its AS, interface and
// address tables, so later steps never mutate an issued Step.
func (c *Churner) materialize() (geoserve.Source, error) {
	base := c.base.Internet
	in := *base
	in.ASes = slices.Clone(base.ASes)
	for ai, ps := range c.grown {
		as := &in.ASes[ai]
		as.Prefixes = append(slices.Clone(as.Prefixes), ps...)
	}
	in.Ifaces = append(slices.Clone(base.Ifaces), c.added...)
	in.ByIP = maps.Clone(base.ByIP)
	for _, ifc := range c.added {
		in.ByIP[ifc.IP] = ifc.ID
	}

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

	mappers := make([]geoserve.NamedMapper, len(c.base.Mappers))
	for m, nm := range c.base.Mappers {
		mappers[m] = geoserve.NamedMapper{Mapper: nm.Mapper, Footprints: slices.Clone(c.footprints[m])}
	}
	return geoserve.Source{
		Internet: &in,
		Table:    table,
		Mappers:  mappers,
		Build:    c.base.Build,
	}, nil
}
