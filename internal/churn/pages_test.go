package churn_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

// TestLineageKeepsEverySnapshot is the net under page sharing: a
// snapshot shares its predecessor's pages wherever it touched nothing,
// so a write into a shared page would change every snapshot holding
// it. It runs 40 churn steps through CompileDelta, and through Diff and
// Apply on a replica lineage, keeps every snapshot of both, and only at
// the end re-derives each one from nothing: its groups must give its
// own digest and leaves.
func TestLineageKeepsEverySnapshot(t *testing.T) {
	p, full0 := fixture(t)
	ch, err := p.Churner(core.ServeOptions{}, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapfile.Encode(full0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep0, _, err := snapfile.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	built, applied := []*geoserve.Snapshot{full0}, []*geoserve.Snapshot{rep0}
	for i := uint64(1); i <= 40; i++ {
		step, err := ch.Next(20)
		if err != nil {
			t.Fatal(err)
		}
		prev, rep := built[len(built)-1], applied[len(applied)-1]
		snap, _, err := p.ServeDelta(prev, step)
		if err != nil {
			t.Fatalf("step %d: delta compile: %v", step.N, err)
		}
		delta, err := snapfile.Diff(prev, snap, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := snapfile.Apply(rep, delta)
		if err != nil {
			t.Fatalf("step %d: apply: %v", step.N, err)
		}
		built, applied = append(built, snap), append(applied, next)
	}
	for _, lineage := range []struct {
		name  string
		snaps []*geoserve.Snapshot
	}{{"CompileDelta", built}, {"Apply", applied}} {
		for i, s := range lineage.snaps {
			scratch, err := geoserve.Derive(nil, s.Header(), s.Groups())
			if err != nil {
				t.Fatalf("%s epoch %d: %v", lineage.name, i, err)
			}
			if scratch.Digest() != s.Digest() || !slices.Equal(scratch.Leaves(), s.Leaves()) {
				t.Fatalf("%s epoch %d: sealed to %.16s, its groups now hash to %.16s: a later epoch wrote into its pages",
					lineage.name, i, s.Digest(), scratch.Digest())
			}
		}
	}
	if built[40].Digest() != applied[40].Digest() {
		t.Fatalf("the lineages end on %.16s and %.16s", built[40].Digest(), applied[40].Digest())
	}
}

// TestLookupsWhileDeriving races readers of a snapshot against the two
// derivations that share its pages: while CompileDelta and Apply derive
// the next epoch from prev, readers look up every address prev indexes
// under every mapper and must keep getting prev's answers. Under -race
// a write into one of prev's pages is reported even where it would
// write equal bytes.
func TestLookupsWhileDeriving(t *testing.T) {
	p, prev := fixture(t)
	ch, err := p.Churner(core.ServeOptions{}, corpusSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		base := prev
		addrs := append(base.Prefixes(), base.ExactIPs()...)
		want := make([][]geoserve.Answer, len(base.Mappers()))
		for m := range want {
			for _, ip := range addrs {
				want[m] = append(want[m], base.Lookup(m, ip))
			}
		}
		var (
			stop   atomic.Bool
			wrong  atomic.Int64
			reader sync.WaitGroup
		)
		for r := 0; r < 2; r++ {
			reader.Add(1)
			go func() {
				defer reader.Done()
				for !stop.Load() {
					for m := range want {
						for k, ip := range addrs {
							if base.Lookup(m, ip) != want[m][k] {
								wrong.Add(1)
							}
						}
					}
				}
			}()
		}
		step, err := ch.Next(20)
		if err == nil {
			if prev, _, err = p.ServeDelta(base, step); err == nil {
				var delta []byte
				if delta, err = snapfile.Diff(base, prev, i, i+1); err == nil {
					_, _, err = snapfile.Apply(base, delta)
				}
			}
		}
		stop.Store(true)
		reader.Wait()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if n := wrong.Load(); n > 0 {
			t.Fatalf("step %d: %d lookups of the base changed answer while the next epoch was derived", i, n)
		}
	}
}
