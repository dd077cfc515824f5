package geoserve_test

import (
	"testing"

	"geonet/internal/geoserve"
	"geonet/internal/obs"
)

// TestLookupZeroAlloc pins that the serving hot paths allocate nothing
// per lookup with the full observability layer attached: metrics
// registered on a live registry and tracing enabled but no trace header
// present (the production steady state). A regression here is exactly
// the kind of slow leak the 0 allocs/op bar on
// BenchmarkServeLookupParallel exists to catch, caught at test time.
func TestLookupZeroAlloc(t *testing.T) {
	p, snap := fixture(t)
	hits := publicIfaceIPs(p)
	if len(hits) == 0 {
		t.Fatal("fixture has no public interface addresses")
	}

	mappers := snap.Mappers()

	e := geoserve.NewEngine(snap)
	// Registering on a handler attaches the engine's metrics to a live
	// registry, same as production serving.
	geoserve.NewObservedHandler(e, obs.NewObservability("engine"))
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		a := e.Lookup(i&1, hits[i%len(hits)])
		if a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Engine.Lookup: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a, ok := e.Locate(mappers[i&1], hits[i%len(hits)])
		if !ok || a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Engine.Locate: %v allocs/op, want 0", n)
	}

	c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	geoserve.NewObservedHandler(c, obs.NewObservability("cluster"))
	i = 0
	if n := testing.AllocsPerRun(1000, func() {
		a := c.Lookup(i&1, hits[i%len(hits)])
		if a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Cluster.Lookup: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a, ok := c.Locate(mappers[i&1], hits[i%len(hits)])
		if !ok || a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Cluster.Locate: %v allocs/op, want 0", n)
	}
}
