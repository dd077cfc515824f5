package geoserve_test

// Fixture-scale cluster tests: zero-alloc single lookups through the
// coordinator, and the chaos test racing batches against repeated
// hot-swaps (run under -race in CI).

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
)

func newTestCluster(tb testing.TB, shards int) *geoserve.Cluster {
	tb.Helper()
	_, snap := fixture(tb)
	c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestClusterLookupZeroAllocs pins the acceptance criterion that
// sharding keeps the single-lookup path allocation-free: routing,
// shard data load, lookup and per-shard metrics all run without heap
// traffic, like the unsharded engine.
func TestClusterLookupZeroAllocs(t *testing.T) {
	p, _ := fixture(t)
	c := newTestCluster(t, 8)
	ips := publicIfaceIPs(p)
	hit := ips[len(ips)/2]
	if n := testing.AllocsPerRun(1000, func() { c.Lookup(0, hit) }); n != 0 {
		t.Errorf("cluster hit path allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Lookup(1, 0xF0000001) }); n != 0 {
		t.Errorf("cluster miss path allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		idx, _ := c.Snapshot().MapperIndex("edgescape")
		c.Lookup(idx, hit)
	}); n != 0 {
		t.Errorf("cluster named lookup allocates %v per op, want 0", n)
	}
}

// reversedSnapshot compiles the fixture pipeline with the mapper order
// reversed: same world, same answers per mapper name, but a distinct
// digest and distinct answers per mapper *index* — so the chaos test
// can tell the two epochs apart and a blended answer set can't hide.
func reversedSnapshot(tb testing.TB) *geoserve.Snapshot {
	tb.Helper()
	p, _ := fixture(tb)
	src, err := p.ServeSource(core.ServeOptions{Label: "reversed"})
	if err != nil {
		tb.Fatal(err)
	}
	slices.Reverse(src.Mappers)
	snap, err := geoserve.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestClusterChaosBatchDuringSwaps is the mixed-epoch chaos test:
// reader goroutines serve batches (every batch spanning all shards)
// while the main goroutine hot-swaps the cluster between two
// distinguishable snapshots, under -race in CI.
// Every batch's reported digest must be one of the two live epochs,
// and every answer in the batch must equal that epoch's snapshot
// answer — a blend of epochs inside one answer set fails.
func TestClusterChaosBatchDuringSwaps(t *testing.T) {
	_, snapA := fixture(t)
	snapB := reversedSnapshot(t)
	if snapA.Digest() == snapB.Digest() {
		t.Fatal("epochs are not distinguishable")
	}
	byDigest := map[string]*geoserve.Snapshot{
		snapA.Digest(): snapA,
		snapB.Digest(): snapB,
	}

	c, err := geoserve.NewCluster(snapA, geoserve.ClusterConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Batches sampled across the whole index so every batch fans out
	// over every shard.
	sweep := invarianceProbes(snapA)
	batch := make([]uint32, 64)
	for i := range batch {
		batch[i] = sweep[i*len(sweep)/len(batch)]
	}

	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		batches atomic.Uint64
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(mapper int) {
			defer wg.Done()
			out := make([]geoserve.Answer, len(batch))
			for {
				select {
				case <-stop:
					return
				default:
				}
				digest, err := c.LookupBatch(mapper, batch, out)
				if err != nil {
					t.Errorf("batch failed: %v", err)
					return
				}
				epoch, ok := byDigest[digest]
				if !ok {
					t.Errorf("batch served unknown epoch %s", digest)
					return
				}
				for i, ip := range batch {
					if want := epoch.Lookup(mapper, ip); out[i] != want {
						t.Errorf("mixed-epoch answer set: batch[%d] = %+v, epoch %s says %+v",
							i, out[i], digest[:12], want)
						return
					}
				}
				batches.Add(1)
				runtime.Gosched()
			}
		}(g % 2)
	}
	// Keep swapping until the readers have verified 200 batches across
	// at least 100 swaps. Both sides yield after each swap or batch, so
	// neither can run its whole share while the other waits for a CPU;
	// 10 s of wall clock bounds a reader that still starves.
	swaps := 0
	for deadline := time.Now().Add(10 * time.Second); (swaps < 100 || batches.Load() < 200) && time.Now().Before(deadline); swaps++ {
		next := snapB
		if swaps%2 == 0 {
			next = snapA
		}
		if _, err := c.Swap(next); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := c.Status().Snapshot.Swaps; got != uint64(swaps) {
		t.Fatalf("swaps = %d, want %d", got, swaps)
	}
	if n := batches.Load(); swaps < 100 || n < 200 {
		t.Fatalf("%d batches verified across %d swaps in 10 s, want ≥ 200 across ≥ 100", n, swaps)
	}
}

// TestClusterSwapTopologyChange swaps between snapshots whose prefix
// universes differ (the fixture vs a synthetic-free world is overkill;
// reversed-mapper keeps the same universe, so this swaps to a snapshot
// compiled from the same world and back while reading — exercising the
// swap path end to end at fixture scale) and verifies post-swap
// answers match the new snapshot everywhere.
func TestClusterSwapTopologyChange(t *testing.T) {
	_, snapA := fixture(t)
	snapB := reversedSnapshot(t)
	c, err := geoserve.NewCluster(snapA, geoserve.ClusterConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Swap(snapB); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot() != snapB {
		t.Fatal("Swap did not publish the new snapshot")
	}
	for _, ip := range invarianceProbes(snapB)[:2000] {
		if got, want := c.Lookup(0, ip), snapB.Lookup(0, ip); got != want {
			t.Fatalf("post-swap answer %+v != %+v", got, want)
		}
	}
	// The mapper name order flipped with the epoch.
	if got := c.Snapshot().Mappers()[0]; got != "edgescape" {
		t.Fatalf("post-swap first mapper %q, want edgescape", got)
	}
}
