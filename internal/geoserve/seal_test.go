package geoserve_test

import (
	"slices"
	"strings"
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

// TestSealRehashesTouched pins what a digest computed against a
// predecessor trusts and what it checks. It trusts that every row
// outside the touched /24s is the predecessor's, and hashes the rest:
// one flipped byte in a group no churn changed, with its /24 listed in
// touched, gives the digest a from-scratch seal gives (the root covers
// every leaf's base and hash, so the leaves agree too). It checks the
// keys a reused leaf rests on: a touched set that omits a /24 whose
// keys changed is refused, never sealed to a wrong leaf, and so is a
// predecessor with other mappers.
func TestSealRehashesTouched(t *testing.T) {
	keys := make([]uint32, 64) // four leaf groups of 16 /24s
	for i := range keys {
		keys[i] = 10<<24 | uint32(i)<<8
	}
	old := sealWorld(t, keys, nil)
	new := sealWorld(t, keys, map[uint32]int64{keys[3]: 9}) // only the first group changes
	if old.Digest() == new.Digest() {
		t.Fatal("test is vacuous: the churn changed nothing")
	}

	gs := new.Groups()
	gs[3].Pages = slices.Clone(gs[3].Pages)
	gs[3].Pages[1] = slices.Clone(gs[3].Pages[1])
	gs[3].Pages[1][2*geoserve.RecordSize] ^= 1 // keys[50]'s prefix row, in the last group
	flipped, err := geoserve.Derive(nil, new.Header(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := geoserve.Seal(flipped, old, []uint32{keys[3], keys[50]}); err != nil || d != flipped.Digest() || d == new.Digest() {
		t.Fatalf("flipped row: digest against the predecessor %.16s (%v), from scratch %.16s, unflipped %.16s",
			d, err, flipped.Digest(), new.Digest())
	}

	holed := slices.Delete(slices.Clone(keys), 40, 41) // keys[40] is in the third group
	for _, c := range []struct {
		name     string
		from, to []uint32
		touched  []uint32
	}{
		{"a /24 left an untouched group", keys, holed, []uint32{keys[3]}},
		{"a /24 joined an untouched group", holed, keys, nil},
		{"a new group holds no touched /24", keys, append(slices.Clone(keys), keys[63]+1<<8), nil},
	} {
		from, to := sealWorld(t, c.from, nil), sealWorld(t, c.to, nil)
		if _, err := geoserve.Seal(to, from, c.touched); err == nil || !strings.Contains(err.Error(), "touched") {
			t.Errorf("%s: sealed against the predecessor with touched %v: err %v, want the key guard's", c.name, c.touched, err)
		}
	}

	renamed := new.Header()
	renamed.Mappers = []string{"alpha", "gamma"}
	other, err := geoserve.Derive(nil, renamed, new.Groups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := geoserve.Seal(other, old, []uint32{keys[3]}); err == nil {
		t.Error("sealed against a predecessor with other mappers")
	}
}

// BenchmarkSeal seals the second snapshot of one test-scale churn pair
// twice: from scratch, and against its predecessor, which reuses the
// leaf of every group the step touched no /24 in.
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
	next, st, err := p.ServeDelta(prev, step)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		prev *geoserve.Snapshot
	}{{"scratch", nil}, {"prev", prev}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d, err := geoserve.Seal(next, bc.prev, st.Touched); err != nil || d != next.Digest() {
					b.Fatalf("sealed to %.16s (%v), want %.16s", d, err, next.Digest())
				}
			}
		})
	}
}
