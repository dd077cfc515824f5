package geoserve

import (
	"slices"
	"testing"
	"unsafe"
)

// This file is the directory tests' window into the package: the
// oracle and what the external tests (which can reach the pipeline
// fixture and the snapfile codec) need of the unexported directory.

// searchRow is the lookup the directory replaced — a binary search of
// the exact addresses, then one of the /24s — kept as the oracle every
// directory test compares against.
func searchRow(s *Snapshot, ip uint32) int {
	if i, ok := search32(s.ips, ip); ok {
		return len(s.prefixes) + i
	}
	if i, ok := search32(s.prefixes, ip&^0xff); ok {
		return i
	}
	return -1
}

// CheckDirectory compares the directory's row with the oracle's at
// both ends of the address space and, for every stored /24 and every
// exact address, at the address itself, its neighbours on both sides
// and (for a /24) its last host and the first of the next /24.
func CheckDirectory(tb testing.TB, s *Snapshot) {
	tb.Helper()
	probe := func(ip uint32) {
		// The directory's (group, page row) as a row of the index:
		// every /24, then every exact address.
		got := -1
		if gi, r := s.dir.row(ip); r >= 0 {
			g := s.groups[gi]
			if got = g.pLo + r; r >= g.prefixRows() {
				got = len(s.prefixes) + g.iLo + r - g.prefixRows()
			}
		}
		if want := searchRow(s, ip); got != want {
			tb.Fatalf("%s: directory row %d, binary search row %d (%d /24s, %d exact)",
				FormatIPv4(ip), got, want, len(s.prefixes), len(s.ips))
		}
	}
	probe(0)
	probe(0xFFFFFFFF)
	for _, p := range s.prefixes {
		for _, ip := range [...]uint32{p - 1, p, p + 1, p + 255, p + 256} {
			probe(ip)
		}
	}
	for _, ip := range s.ips {
		probe(ip - 1)
		probe(ip)
		probe(ip + 1)
	}
}

// DeriveSlabs cuts each mapper's slab — a record per /24 of prefixes,
// then one per address of ips, both ascending — into the leaf groups a
// snapshot stores, and derives the snapshot from nothing.
func DeriveSlabs(h Header, prefixes, ips []uint32, slabs [][]byte) (*Snapshot, error) {
	np := len(prefixes)
	var gs []Group
	for _, g := range groups(prefixes, ips) {
		cut := Group{Base: g.base, Prefixes: prefixes[g.pLo:g.pHi], IPs: ips[g.iLo:g.iHi]}
		for _, slab := range slabs {
			cut.Pages = append(cut.Pages, slices.Concat(slab[g.pLo*RecordSize:g.pHi*RecordSize],
				slab[(np+g.iLo)*RecordSize:(np+g.iHi)*RecordSize]))
		}
		gs = append(gs, cut)
	}
	return Derive(nil, h, gs)
}

// SharesDirectory reports whether b serves from a's directory rather
// than one of its own.
func SharesDirectory(a, b *Snapshot) bool { return a.dir == b.dir }

// DirectorySize reports how many blocks and slots the snapshot's
// directory holds and the bytes it occupies, by capacity.
func DirectorySize(s *Snapshot) (blocks, slots, bytes int) {
	d := s.dir
	bytes = int(unsafe.Sizeof(d.l1)) +
		cap(d.blocks)*int(unsafe.Sizeof(d.blocks[0])) +
		cap(d.slots)*int(unsafe.Sizeof(d.slots[0]))
	return len(d.blocks), len(d.slots), bytes
}

// Seal recomputes s's content digest from scratch on a copy of s: the
// seal every derivation ends with, over every group.
func Seal(s *Snapshot) (string, error) {
	c := &Snapshot{mappers: s.mappers, prefixes: s.prefixes, ips: s.ips, groups: s.groups, pages: s.pages,
		leaves: slices.Clone(s.leaves), asns: s.asns, footprints: s.footprints, dir: s.dir}
	err := c.seal(everyGroup(c))
	return c.digest, err
}

// everyGroup lists the indexes of every group of s: the fresh groups of
// a seal from scratch.
func everyGroup(s *Snapshot) []int {
	all := make([]int, len(s.groups))
	for i := range all {
		all[i] = i
	}
	return all
}

// SharedPages reports, per leaf of b in order, whether b holds a's
// pages for that group under every mapper: the same memory, not just
// equal bytes.
func SharedPages(a, b *Snapshot) []bool {
	nm := len(b.mappers)
	out := make([]bool, len(b.groups))
	for i, g := range b.groups {
		k, ok := a.groupAt(g.base)
		out[i] = ok && len(a.mappers) == nm
		for m := 0; out[i] && m < nm; m++ {
			pa, pb := a.page(m, k), b.page(m, i)
			out[i] = len(pa) == len(pb) && unsafe.SliceData(pa) == unsafe.SliceData(pb)
		}
	}
	return out
}
