package geoserve_test

import (
	"slices"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
	"geonet/internal/rng"
)

// indexSnapshot derives from nothing a one-mapper snapshot
// over the given /24s and exact addresses (any order, duplicates
// dropped); row r answers with ASN r+1, so an answer names its row.
func indexSnapshot(t *testing.T, prefixes, ips []uint32) *geoserve.Snapshot {
	t.Helper()
	slices.Sort(prefixes)
	slices.Sort(ips)
	prefixes, ips = slices.Compact(prefixes), slices.Compact(ips)
	rows := len(prefixes) + len(ips)
	slab := make([]byte, rows*geoserve.RecordSize)
	for row := 0; row < rows; row++ {
		a := geoserve.Answer{ASN: row + 1, Exact: row >= len(prefixes)}
		if err := geoserve.PutRecord(slab[row*geoserve.RecordSize:], a); err != nil {
			t.Fatal(err)
		}
	}
	h := geoserve.Header{Mappers: []string{"m"}, Footprints: make([][]analysis.ASFootprint, 1)}
	snap, err := geoserve.DeriveSlabs(h, prefixes, ips, [][]byte{slab})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDirectoryMatchesSearch pins the one lookup path to the one it
// replaced: wherever a snapshot comes from, the directory and the two
// binary searches name the same row for every stored /24, every exact
// address and their neighbours (geoserve.CheckDirectory).
func TestDirectoryMatchesSearch(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		snap := indexSnapshot(t, nil, nil)
		geoserve.CheckDirectory(t, snap)
		if a := snap.Lookup(0, 0x0A000001); a != (geoserve.Answer{IP: 0x0A000001}) {
			t.Fatalf("empty snapshot answered %+v", a)
		}
	})

	t.Run("edges", func(t *testing.T) {
		// Both ends of the address space as /24s and as exact addresses,
		// /24s at both ends of a /16 and across the boundary to its
		// neighbours, a /24 whose 256 hosts are all exact, and exact
		// addresses in /24s (and a /16) nothing allocated — Derive
		// accepts them though no compile produces one.
		prefixes := []uint32{
			0x00000000, 0xFFFFFF00,
			0x0A01FF00, 0x0A020000, 0x0A02FF00, 0x0A030000,
			0x0B000000,
		}
		ips := []uint32{
			0x00000000, 0xFFFFFFFF,
			0x0A020000, 0x0A02FFFF, 0x0A02003F, 0x0A020040, 0x0A02007F, 0x0A020080, 0x0A0200C0,
			0x0C000000, 0x0C0000FF, 0x0C00FF80, 0x0A028001,
		}
		for h := uint32(0); h < 256; h++ {
			ips = append(ips, 0x0B000000|h)
		}
		snap := indexSnapshot(t, prefixes, ips)
		geoserve.CheckDirectory(t, snap)
		np := snap.NumPrefixes()
		for i, ip := range snap.ExactIPs() {
			if a := snap.Lookup(0, ip); !a.Exact || a.ASN != np+i+1 {
				t.Fatalf("exact %s answered %+v, want row %d", geoserve.FormatIPv4(ip), a, np+i)
			}
		}
		// An exact-only /24 misses at every host that is not exact.
		if a := snap.Lookup(0, 0x0C000001); a != (geoserve.Answer{IP: 0x0C000001}) {
			t.Fatalf("unallocated /24 answered %+v", a)
		}
	})

	t.Run("random", func(t *testing.T) {
		root := rng.New(15)
		for round := 0; round < 40; round++ {
			r := root.SplitN("tables", round)
			// A few /16s, so /24s collide with each other and with the
			// exact addresses; a quarter of the exact addresses fall
			// anywhere, mostly in /24s that are not allocated.
			var sixteens []uint32
			for i := 1 + r.Intn(6); i > 0; i-- {
				sixteens = append(sixteens, uint32(r.Intn(1<<16))<<16)
			}
			pick := func() uint32 { return sixteens[r.Intn(len(sixteens))] }
			var prefixes, ips []uint32
			for i := r.Intn(300); i > 0; i-- {
				prefixes = append(prefixes, pick()|uint32(r.Intn(256))<<8)
			}
			for i := r.Intn(2000); i > 0; i-- {
				switch {
				case i%4 == 0:
					ips = append(ips, uint32(r.Intn(1<<16))<<16|uint32(r.Intn(1<<16)))
				case len(prefixes) > 0 && i%4 == 1:
					ips = append(ips, prefixes[r.Intn(len(prefixes))]|uint32(r.Intn(256)))
				default:
					ips = append(ips, pick()|uint32(r.Intn(1<<16)))
				}
			}
			geoserve.CheckDirectory(t, indexSnapshot(t, prefixes, ips))
		}
	})

	t.Run("compiled", func(t *testing.T) {
		_, snap := fixture(t)
		geoserve.CheckDirectory(t, snap)
		blob, err := snapfile.Encode(snap, 1)
		if err != nil {
			t.Fatal(err)
		}
		decoded, _, err := snapfile.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		geoserve.CheckDirectory(t, decoded)
	})

	t.Run("delta", func(t *testing.T) {
		// A churn chain has steps that move only answers — CompileDelta
		// and Apply then share prev's directory — and steps that move the
		// index and rebuild it. Both kinds must occur and both must match.
		p, prev := fixture(t)
		ch, err := p.Churner(core.ServeOptions{}, 15)
		if err != nil {
			t.Fatal(err)
		}
		shared, rebuilt := 0, 0
		for i := 0; i < 12; i++ {
			step, err := ch.Next(2)
			if err != nil {
				t.Fatal(err)
			}
			next, _, err := p.ServeDelta(prev, step)
			if err != nil {
				t.Fatal(err)
			}
			delta, err := snapfile.Diff(prev, next, uint64(i), uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			applied, _, err := snapfile.Apply(prev, delta)
			if err != nil {
				t.Fatal(err)
			}
			sameIndex := slices.Equal(prev.Prefixes(), next.Prefixes()) && slices.Equal(prev.ExactIPs(), next.ExactIPs())
			for name, snap := range map[string]*geoserve.Snapshot{"CompileDelta": next, "Apply": applied} {
				if geoserve.SharesDirectory(prev, snap) != sameIndex {
					t.Fatalf("step %d: %s: same index %v but shared directory %v", step.N, name, sameIndex, !sameIndex)
				}
				geoserve.CheckDirectory(t, snap)
			}
			if sameIndex {
				shared++
			} else {
				rebuilt++
			}
			prev = next
		}
		if shared == 0 || rebuilt == 0 {
			t.Fatalf("%d steps shared the directory and %d rebuilt it; the chain must do both", shared, rebuilt)
		}
	})
}

// TestDirectoryBound pins what Derive promises about groups read off
// the network: the directory they make it build stays within 256 KB +
// 1 KB per distinct /16 + 40 B per distinct /24 (plus the one shared
// block and slot). The worst input per row puts every row in a /16 of
// its own, so both indexes here cover all 65 536 of them — a one-row
// op of 46 B buys 1 KB of block, and there the growth stops, at 64 MB.
func TestDirectoryBound(t *testing.T) {
	const n = 1 << 16
	bases, hosts := make([]uint32, n), make([]uint32, n)
	for i := range bases {
		// One row per /16: as a /24 base, and (host 77) as an exact
		// address whose /24 is not allocated.
		bases[i] = uint32(i)<<16 | uint32(i&0xff)<<8
		hosts[i] = bases[i] | 77
	}
	for name, snap := range map[string]*geoserve.Snapshot{
		"prefixes": indexSnapshot(t, bases, nil),
		"exact":    indexSnapshot(t, nil, hosts),
	} {
		blocks, slots, size := geoserve.DirectorySize(snap)
		if blocks != n+1 || slots != n+1 {
			t.Fatalf("%s: %d blocks and %d slots for %d rows in %d /16s", name, blocks, slots, n, n)
		}
		if bound := 256<<10 + (n+1)<<10 + (n+1)*40; size > bound {
			t.Fatalf("%s: directory is %d bytes, bound %d", name, size, bound)
		}
		geoserve.CheckDirectory(t, snap)
	}
}
