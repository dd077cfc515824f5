package geoserve_test

import (
	"slices"
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// TestRadixSortMatchesSort pins the index sort to slices.Sort: random
// inputs with duplicates, inputs sharing all but one byte (the skipped
// passes), and the short and sorted edge cases.
func TestRadixSortMatchesSort(t *testing.T) {
	r := rng.New(3)
	inputs := [][]uint32{nil, {7}, {2, 1}, {1, 2, 3}}
	for _, n := range []int{10, 1000, 70000} {
		random, narrow := make([]uint32, n), make([]uint32, n)
		for i := range random {
			random[i] = uint32(r.Int63())
			narrow[i] = 10<<24 | uint32(r.Intn(256))<<8
		}
		inputs = append(inputs, random, narrow, random[:n/2:n/2])
	}
	for _, in := range inputs {
		got, want := slices.Clone(in), slices.Clone(in)
		geoserve.RadixSort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("radix sort of %d values differs from slices.Sort", len(in))
		}
	}
}

// BenchmarkSeal seals the second snapshot of one test-scale churn pair
// twice: from scratch, and against its predecessor, which reuses the
// leaf of every group whose rows are unchanged.
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
	for _, bc := range []struct {
		name string
		prev *geoserve.Snapshot
	}{{"scratch", nil}, {"prev", prev}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := geoserve.Seal(next, bc.prev); d != next.Digest() {
					b.Fatalf("sealed to %.16s, want %.16s", d, next.Digest())
				}
			}
		})
	}
}
