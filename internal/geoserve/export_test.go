package geoserve

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"
)

// This file is the directory tests' window into the package: the
// oracle and what the external tests (which can reach the pipeline
// fixture and the snapfile codec) need of the unexported directory.

// hit is what a lookup finds for an address: the key of its row (the
// address itself for an exact row, its /24 for a prefix row) and
// whether the row is exact, or ok=false on a miss.
type hit struct {
	key       uint32
	exact, ok bool
}

// searchRow is the lookup the directory replaced — a binary search of
// the exact addresses, then one of the /24s — kept as the oracle every
// directory test compares against.
func searchRow(prefixes, ips []uint32, ip uint32) hit {
	if _, ok := slices.BinarySearch(ips, ip); ok {
		return hit{ip, true, true}
	}
	if _, ok := slices.BinarySearch(prefixes, ip&^0xff); ok {
		return hit{ip &^ 0xff, false, true}
	}
	return hit{}
}

// CheckDirectory compares the directory's row with the oracle's at
// both ends of the address space and, for every stored /24 and every
// exact address, at the address itself, its neighbours on both sides
// and (for a /24) its last host and the first of the next /24.
func CheckDirectory(tb testing.TB, s *Snapshot) {
	tb.Helper()
	prefixes, ips := s.Prefixes(), s.ExactIPs()
	probe := func(ip uint32) {
		var got hit
		if gi, r := s.dir.row(ip); r >= 0 {
			g := s.groups[gi]
			got = hit{g.key(r), r >= len(g.Prefixes), true}
		}
		if want := searchRow(prefixes, ips, ip); got != want {
			tb.Fatalf("%s: directory row holds %+v, binary search finds %+v (%d /24s, %d exact)",
				FormatIPv4(ip), got, want, len(prefixes), len(ips))
		}
	}
	probe(0)
	probe(0xFFFFFFFF)
	for _, p := range prefixes {
		for _, ip := range [...]uint32{p - 1, p, p + 1, p + 255, p + 256} {
			probe(ip)
		}
	}
	for _, ip := range ips {
		probe(ip - 1)
		probe(ip)
		probe(ip + 1)
	}
}

// DeriveSlabs cuts each mapper's slab — a record per /24 of prefixes,
// then one per address of ips, both ascending — into the leaf groups a
// snapshot stores, and derives the snapshot from nothing.
func DeriveSlabs(h Header, prefixes, ips []uint32, slabs [][]byte) (*Snapshot, error) {
	gs := groups(prefixes, ips)
	p, i := 0, len(prefixes) // the slab rows of the group's first /24 and first exact address
	for k := range gs {
		g := &gs[k]
		np, ni := len(g.Prefixes)*RecordSize, len(g.IPs)*RecordSize
		for _, slab := range slabs {
			g.Pages = append(g.Pages, slices.Concat(slab[p*RecordSize:][:np], slab[i*RecordSize:][:ni]))
		}
		p, i = p+len(g.Prefixes), i+len(g.IPs)
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
	c := &Snapshot{mappers: s.mappers, groups: s.groups, pages: s.pages, leaves: slices.Clone(s.leaves),
		asns: s.asns, footprints: s.footprints, dir: s.dir}
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
// keys and pages for that group, under every mapper: the same memory,
// not just equal values.
func SharedPages(a, b *Snapshot) []bool {
	out := make([]bool, len(b.groups))
	for i, g := range b.groups {
		k, ok := slices.BinarySearchFunc(a.groups, g.Base, func(x Group, base uint32) int { return cmp.Compare(x.Base, base) })
		if !ok {
			continue
		}
		was := a.groups[k]
		out[i] = sameMemory(was.Prefixes, g.Prefixes) && sameMemory(was.IPs, g.IPs) && len(was.Pages) == len(g.Pages)
		for m := 0; out[i] && m < len(g.Pages); m++ {
			out[i] = sameMemory(was.Pages[m], g.Pages[m])
		}
	}
	return out
}

// sameMemory reports whether x and y are one slice of the same memory.
func sameMemory[T any](x, y []T) bool {
	return len(x) == len(y) && unsafe.SliceData(x) == unsafe.SliceData(y)
}
