package geoserve_test

import (
	"slices"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/core"
	"geonet/internal/geoserve"
)

// sealWorld assembles a two-mapper snapshot holding, for each /24 of
// keys (ascending), a prefix row and two exact rows whose answers are a
// function of the key and salts[key]: worlds built with mostly equal
// salts share most leaf groups byte for byte.
func sealWorld(tb testing.TB, keys []uint32, salts map[uint32]int64) *geoserve.Snapshot {
	tb.Helper()
	h := geoserve.Header{Mappers: []string{"alpha", "beta"}, Footprints: make([][]analysis.ASFootprint, 2)}
	var ips []uint32
	for _, k := range keys {
		ips = append(ips, k+1, k+2)
	}
	n := len(keys)
	var slabs [][]byte
	for m := range h.Mappers {
		slab := make([]byte, 3*n*geoserve.RecordSize)
		for r := range 3 * n {
			k := keys[r%n]
			if r >= n {
				k = keys[(r-n)/2]
			}
			a := geoserve.Answer{Found: true, Exact: r >= n, Method: "whois", ASN: 1 + r, RadiusMi: float64(m) + float64(salts[k])}
			if err := geoserve.PutRecord(slab[r*geoserve.RecordSize:], a); err != nil {
				tb.Fatal(err)
			}
		}
		slabs = append(slabs, slab)
	}
	s, err := geoserve.DeriveSlabs(h, keys, ips, slabs)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// changedGroups returns the groups that derive next from prev: each
// group of next whose leaf prev does not hold, and a delete (a group
// with no rows) at each base only prev holds.
func changedGroups(prev, next *geoserve.Snapshot) []geoserve.Group {
	var gs []geoserve.Group
	pl, nl, ng := prev.Leaves(), next.Leaves(), next.Groups()
	for i, j := 0, 0; i < len(pl) || j < len(nl); {
		switch {
		case j == len(nl) || i < len(pl) && pl[i].Base < nl[j].Base:
			gs, i = append(gs, geoserve.Group{Base: pl[i].Base, Pages: make([][]byte, len(next.Mappers()))}), i+1
		case i == len(pl) || nl[j].Base < pl[i].Base:
			gs, j = append(gs, ng[j]), j+1
		default:
			if pl[i] != nl[j] {
				gs = append(gs, ng[j])
			}
			i, j = i+1, j+1
		}
	}
	return gs
}

// TestSealRehashesTouched pins what a digest derived from a
// predecessor trusts and what it checks. It trusts that every group no
// put names is the predecessor's, and hashes every put: deriving with
// the changed groups as puts gives the from-scratch digest, and a put
// carrying one flipped byte in a group no churn changed gives the
// flipped world's from-scratch digest (the root covers every leaf's
// base and hash, so the leaves agree too), never a leaf reused from
// the predecessor. A header whose mappers differ from the
// predecessor's is refused.
func TestSealRehashesTouched(t *testing.T) {
	keys := make([]uint32, 64) // four leaf groups of 16 /24s
	for i := range keys {
		keys[i] = 10<<24 | uint32(i)<<8
	}
	old := sealWorld(t, keys, nil)
	new := sealWorld(t, keys, map[uint32]int64{keys[3]: 9}) // only the first group changes
	puts := changedGroups(old, new)
	if len(puts) != 1 {
		t.Fatalf("the churn changed %d groups, want 1", len(puts))
	}
	derived, err := geoserve.Derive(old, new.Header(), puts)
	if err != nil || derived.Digest() != new.Digest() || !slices.Equal(derived.Leaves(), new.Leaves()) {
		t.Fatalf("derived with the changed group: digest %.16s (%v), from scratch %.16s", derived.Digest(), err, new.Digest())
	}

	gs := new.Groups()
	gs[3].Pages = slices.Clone(gs[3].Pages)
	gs[3].Pages[1] = slices.Clone(gs[3].Pages[1])
	gs[3].Pages[1][2*geoserve.RecordSize] ^= 1 // keys[50]'s prefix row, in the last group
	flipped, err := geoserve.Derive(nil, new.Header(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := geoserve.Seal(flipped); err != nil || d != flipped.Digest() {
		t.Fatalf("flipped world sealed again from scratch to %.16s (%v), derived to %.16s", d, err, flipped.Digest())
	}
	derived, err = geoserve.Derive(old, new.Header(), append(puts, gs[3]))
	if err != nil || derived.Digest() != flipped.Digest() || derived.Digest() == new.Digest() {
		t.Fatalf("flipped put: digest derived from the predecessor %.16s (%v), from scratch %.16s, unflipped %.16s",
			derived.Digest(), err, flipped.Digest(), new.Digest())
	}

	renamed := new.Header()
	renamed.Mappers = []string{"alpha", "gamma"}
	if _, err := geoserve.Derive(old, renamed, puts); err == nil {
		t.Error("derived from a predecessor with other mappers")
	}
}

// BenchmarkSeal derives the second snapshot of one test-scale churn
// pair twice: sealed from scratch, and from its predecessor with the
// groups the step changed as puts, which hashes only those groups and
// takes the predecessor's leaf for every other.
func BenchmarkSeal(b *testing.B) {
	p, prev := fixture(b)
	ch, err := p.Churner(core.ServeOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	step, err := ch.Next(20)
	if err != nil {
		b.Fatal(err)
	}
	next, _, err := p.ServeDelta(prev, step)
	if err != nil {
		b.Fatal(err)
	}
	puts := changedGroups(prev, next)
	for _, bc := range []struct {
		name string
		seal func() (string, error)
	}{
		{"scratch", func() (string, error) { return geoserve.Seal(next) }},
		{"prev", func() (string, error) {
			s, err := geoserve.Derive(prev, next.Header(), puts)
			if err != nil {
				return "", err
			}
			return s.Digest(), nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d, err := bc.seal(); err != nil || d != next.Digest() {
					b.Fatalf("sealed to %.16s (%v), want %.16s", d, err, next.Digest())
				}
			}
		})
	}
}
