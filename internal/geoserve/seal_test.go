package geoserve_test

import (
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
)

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
