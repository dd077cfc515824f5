package geoserve_test

import (
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

// TestDerivationsSharePages pins the memory an epoch costs: after one
// churn step, the delta carries one op per leaf group holding a touched
// /24, and the builder's CompileDelta and a replica's Apply each hold
// their base's keys and pages for exactly the leaf groups in which the
// step touched no /24, and new pages for the others. The compiled
// snapshot keeps none of its Source: with the step's address sets
// overwritten, it seals to its own digest and its directory matches
// its keys.
func TestDerivationsSharePages(t *testing.T) {
	p, prev := fixture(t)
	ch, err := p.Churner(core.ServeOptions{}, 44)
	if err != nil {
		t.Fatal(err)
	}
	step, err := ch.Next(20)
	if err != nil {
		t.Fatal(err)
	}
	next, st, err := p.ServeDelta(prev, step)
	if err != nil {
		t.Fatal(err)
	}
	clear(step.Source.Prefixes)
	clear(step.Source.IPs)
	if d, err := geoserve.Seal(next); err != nil || d != next.Digest() {
		t.Fatalf("with its Source overwritten, the compiled snapshot seals to %.16s (%v), want %.16s", d, err, next.Digest())
	}
	geoserve.CheckDirectory(t, next)
	blob, err := snapfile.Encode(prev, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := snapfile.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := snapfile.Diff(prev, next, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	applied, info, err := snapfile.Apply(rep, delta)
	if err != nil {
		t.Fatal(err)
	}
	touchedGroup := map[uint32]bool{}
	for _, key := range st.Touched {
		touchedGroup[key&^(1<<12-1)] = true
	}
	if info.Ops != len(touchedGroup) {
		t.Fatalf("delta carries %d ops for %d leaf groups holding a touched /24", info.Ops, len(touchedGroup))
	}
	for _, c := range []struct {
		name       string
		base, snap *geoserve.Snapshot
	}{{"CompileDelta", prev, next}, {"Apply", rep, applied}} {
		shared := geoserve.SharedPages(c.base, c.snap)
		n := 0
		for i, leaf := range c.snap.Leaves() {
			if shared[i] == touchedGroup[leaf.Base] {
				t.Fatalf("%s: group %s touched %v but shares its base's keys and pages %v",
					c.name, geoserve.FormatIPv4(leaf.Base), touchedGroup[leaf.Base], shared[i])
			}
			if shared[i] {
				n++
			}
		}
		if n == 0 || n == len(shared) {
			t.Fatalf("%s: %d of %d groups shared; a 20-event step must share some and replace some", c.name, n, len(shared))
		}
		t.Logf("%s: %d of %d groups shared, %d /24s touched", c.name, n, len(shared), len(st.Touched))
	}
}
