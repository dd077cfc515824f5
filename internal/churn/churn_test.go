package churn_test

import (
	"slices"
	"testing"

	"geonet/internal/churn"
	"geonet/internal/core"
	"geonet/internal/geoserve"
)

// TestIssuedStepsStayValid pins that a Step's Source is its own: later
// steps insert interfaces into and grow the churner's address sets, and
// a step kept from before them must compile to the digest it had when
// it was issued. A churner that let an issued Source share a backing
// array it later inserts into fails here.
func TestIssuedStepsStayValid(t *testing.T) {
	p, _ := fixture(t)
	ch, err := p.Churner(core.ServeOptions{}, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	var kept churn.Step
	var keptDigest string
	kinds := map[churn.Kind]int{}
	for n := 1; n <= 12; n++ {
		step, err := ch.Next(corpusEvents)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case n == 3:
			snap, err := geoserve.Compile(step.Source)
			if err != nil {
				t.Fatal(err)
			}
			kept, keptDigest = step, snap.Digest()
		case n > 3:
			for _, ev := range step.Events {
				kinds[ev.Kind]++
			}
		}
	}
	if kinds[churn.IfaceAdd] == 0 || kinds[churn.Grow] == 0 {
		t.Fatalf("steps 4-12 drew %d interface adds and %d grows; both must occur", kinds[churn.IfaceAdd], kinds[churn.Grow])
	}
	again, err := geoserve.Compile(kept.Source)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest() != keptDigest {
		t.Fatalf("step 3 recompiled to %.16s after steps 4-12, was %.16s when issued", again.Digest(), keptDigest)
	}
}

// TestGrowSkipsReservedSpace pins where allocation growth goes once it
// reaches reserved space: past 10/8 (netgen's private pool), 127/8,
// 172.16/12 and 192.168/16, and nowhere once 224.0.0.0 (multicast) or
// the top of the space is reached.
func TestGrowSkipsReservedSpace(t *testing.T) {
	p, _ := fixture(t)
	src, err := p.ServeSource(core.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ip := func(a, b, c uint32) uint32 { return a<<24 | b<<16 | c<<8 }
	for _, c := range []struct {
		last uint32   // the highest allocated /24
		want []uint32 // the first two grown /24s; none when nil
	}{
		{ip(9, 255, 254), []uint32{ip(9, 255, 255), ip(11, 0, 0)}},
		{ip(9, 255, 255), []uint32{ip(11, 0, 0), ip(11, 0, 1)}},
		{ip(126, 255, 255), []uint32{ip(128, 0, 0), ip(128, 0, 1)}},
		{ip(172, 15, 255), []uint32{ip(172, 32, 0), ip(172, 32, 1)}},
		{ip(192, 167, 255), []uint32{ip(192, 169, 0), ip(192, 169, 1)}},
		{ip(223, 255, 254), []uint32{ip(223, 255, 255)}},
		{ip(223, 255, 255), nil},
		{ip(255, 255, 255), nil},
	} {
		s := src
		s.Prefixes = append(slices.Clip(src.Prefixes), c.last)
		ch, err := churn.New(p.Internet, s, corpusSeed)
		if err != nil {
			t.Fatal(err)
		}
		var grown []uint32
		for range 8 {
			step, err := ch.Next(corpusEvents)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range step.Events {
				if ev.Kind == churn.Grow {
					grown = append(grown, ev.Base)
				}
			}
		}
		if len(c.want) == 2 && len(grown) > 2 {
			grown = grown[:2]
		}
		if !slices.Equal(grown, c.want) {
			t.Errorf("after %s: grew %s, want %s", geoserve.FormatIPv4(c.last), addrs(grown), addrs(c.want))
		}
	}
}

func addrs(xs []uint32) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = geoserve.FormatIPv4(x)
	}
	return out
}

// BenchmarkChurnStep is one epoch's builder-side cost at test scale:
// draw and materialise a 20-event churn step, then delta-compile it.
func BenchmarkChurnStep(b *testing.B) {
	p, prev := fixture(b)
	ch, err := p.Churner(core.ServeOptions{}, corpusSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		step, err := ch.Next(20)
		if err != nil {
			b.Fatal(err)
		}
		if prev, _, err = p.ServeDelta(prev, step); err != nil {
			b.Fatal(err)
		}
	}
}
