package netsim

import (
	"reflect"
	"sync"
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/rng"
)

// TestCSRMatchesReference is the golden test for the CSR rewrite: over
// a spread of random pairs (plus loose-source-routed triples), the
// compiled fabric must reproduce the seed implementation's forwarding
// paths hop for hop — same routers, same inbound interfaces, same
// success flags — proving equal-cost tie-breaking survived the change
// of adjacency layout and priority queue.
func TestCSRMatchesReference(t *testing.T) {
	in, net := compileSmall(t)
	ref := refCompile(in, net)
	s := rng.New(41)
	for i := 0; i < 600; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		got, gotOK := net.AppendPath(nil, src, dst)
		want, wantOK := ref.path(src, dst)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("path %d->%d diverges from reference:\n got %v ok=%v\nwant %v ok=%v",
				src, dst, got, gotOK, want, wantOK)
		}
	}
	for i := 0; i < 200; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		via := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		got, gotOK := net.AppendPathVia(nil, src, via, dst)
		want, wantOK := ref.pathVia(src, via, dst)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("source-routed path %d->%d->%d diverges from reference",
				src, via, dst)
		}
	}
}

// TestBordersMatchReference proves the set-based addBorder dedup keeps
// the seed's first-appearance border order — the order border routers
// seed the egress Dijkstra, which equal-cost tables depend on.
func TestBordersMatchReference(t *testing.T) {
	in, net := compileSmall(t)
	ref := refCompile(in, net)
	if len(net.borders) != len(ref.borders) {
		t.Fatalf("border key count %d, reference %d", len(net.borders), len(ref.borders))
	}
	for key, want := range ref.borders {
		if got := net.borders[key]; !reflect.DeepEqual(got, want) {
			t.Fatalf("borders[%v] = %v, reference %v", key, got, want)
		}
	}
}

// TestConcurrentProbingTinyBudget hammers one compiled network from
// many goroutines while a tiny cache budget forces constant eviction,
// and cross-checks every concurrent path against a serial recompute.
// Run under -race (CI does) this also proves the sharded caches and
// single-flight guards are data-race free.
func TestConcurrentProbingTinyBudget(t *testing.T) {
	in, _ := compileSmall(t)
	net := Compile(in)
	net.CacheBudget = 4
	const workers = 8
	type probe struct {
		src, dst netgen.RouterID
	}
	var wg sync.WaitGroup
	results := make([][]probe, workers)
	paths := make([][][]Hop, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := rng.New(int64(100 + w))
			for i := 0; i < 150; i++ {
				src := netgen.RouterID(s.Intn(len(in.Routers)))
				dst := netgen.RouterID(s.Intn(len(in.Routers)))
				p, ok := net.AppendPath(nil, src, dst)
				if !ok {
					p = nil
				}
				results[w] = append(results[w], probe{src, dst})
				paths[w] = append(paths[w], p)
			}
		}(w)
	}
	wg.Wait()
	// Serial ground truth on a fresh, unpressured network.
	serial := Compile(in)
	for w := 0; w < workers; w++ {
		for i, pr := range results[w] {
			want, ok := serial.AppendPath(nil, pr.src, pr.dst)
			if !ok {
				want = nil
			}
			if !reflect.DeepEqual(paths[w][i], want) {
				t.Fatalf("worker %d probe %d (%d->%d): concurrent path under eviction differs from serial",
					w, i, pr.src, pr.dst)
			}
		}
	}
}

// TestCacheEvictionBounds pins the eviction contract: the cached-table
// count stays near the budget (a sweep triggers once the budget is
// exceeded and frees at least half), paths stay correct throughout,
// and re-probing after eviction recomputes identical tables.
func TestCacheEvictionBounds(t *testing.T) {
	in, _ := compileSmall(t)
	net := Compile(in)
	net.CacheBudget = 8
	s := rng.New(8)
	maxSeen := 0
	for i := 0; i < 300; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		path, ok := net.AppendPath(nil, src, dst)
		if ok && path[len(path)-1].Router != dst {
			t.Fatal("path wrong under eviction pressure")
		}
		if c := net.CachedTables(); c > maxSeen {
			maxSeen = c
		}
	}
	// A single walk can pull in several tables past the threshold
	// before its next miss triggers the sweep; anything beyond budget
	// plus one walk's worth of tables means eviction never ran.
	if maxSeen > net.CacheBudget+maxSteps {
		t.Errorf("cached tables reached %d; budget %d never enforced", maxSeen, net.CacheBudget)
	}
	if net.CachedTables() == 0 && maxSeen == 0 {
		t.Error("cache never populated")
	}
	// Determinism across eviction: the same route recomputed after a
	// wipe must match a never-evicted network.
	fresh := Compile(in)
	for i := 0; i < 50; i++ {
		src := netgen.RouterID(s.Intn(len(in.Routers)))
		dst := netgen.RouterID(s.Intn(len(in.Routers)))
		p1, ok1 := net.AppendPath(nil, src, dst)
		p2, ok2 := fresh.AppendPath(nil, src, dst)
		if ok1 != ok2 || !reflect.DeepEqual(p1, p2) {
			t.Fatalf("post-eviction path %d->%d differs from fresh network", src, dst)
		}
	}
}

// TestSingleFlight checks that concurrent misses for one destination
// produce one shared table: all callers must get the exact same slice
// (pointer equality), not equal copies.
func TestSingleFlight(t *testing.T) {
	in, _ := compileSmall(t)
	net := Compile(in)
	// Pick a destination in a reasonably large AS so the SPF is slow
	// enough for the flights to overlap.
	var dst netgen.RouterID = 0
	for _, as := range in.ASes {
		if len(as.Routers) >= 30 {
			dst = as.Routers[len(as.Routers)/2]
			break
		}
	}
	const callers = 16
	tables := make([][]int32, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer done.Done()
			start.Wait()
			tables[c] = net.intraNext(dst)
		}(c)
	}
	start.Done()
	done.Wait()
	for c := 1; c < callers; c++ {
		if &tables[c][0] != &tables[0][0] {
			t.Fatalf("caller %d received a distinct table for the same destination", c)
		}
	}
	if got := net.CachedTables(); got != 1 {
		t.Fatalf("cached %d tables after single-flight race, want 1", got)
	}
}

// TestNextASMatchesReference checks the next AS of every AS pair
// against the reference's dense all-pairs matrix: on a fresh fabric, on
// one whose budget of 4 tables evicts each row between reads of it, and
// from 8 goroutines reading one fabric at once (race-checked in CI).
func TestNextASMatchesReference(t *testing.T) {
	in, _ := compileSmall(t)
	ref := refCompile(in, nil)
	numAS := len(in.ASes)
	check := func(t *testing.T, net *Network, a, b int) bool {
		got, want := net.NextAS(netgen.ASID(a), netgen.ASID(b)), ref.nextAS(netgen.ASID(a), netgen.ASID(b))
		if got != want {
			t.Errorf("NextAS(%d, %d) = %d, reference %d", a, b, got, want)
		}
		return got == want
	}
	t.Run("fresh", func(t *testing.T) {
		net := Compile(in)
		for a := 0; a < numAS; a++ {
			for b := 0; b < numAS; b++ {
				if !check(t, net, a, b) {
					return
				}
			}
		}
	})
	t.Run("budget4", func(t *testing.T) {
		net := Compile(in)
		net.CacheBudget = 4
		// A block of 64 destinations at a time, every source per block:
		// at most 4 of the numAS rows read in one block survive it, so
		// each row is evicted and recomputed between its reads.
		const block = 64
		maxHeld := 0
		for b0 := 0; b0 < numAS; b0 += block {
			for a := 0; a < numAS; a++ {
				for b := b0; b < min(b0+block, numAS); b++ {
					if !check(t, net, a, b) {
						return
					}
				}
				maxHeld = max(maxHeld, net.CachedTables())
			}
		}
		if numAS <= 2*block || maxHeld > net.CacheBudget {
			t.Errorf("%d ASes, at most %d rows held: budget %d did not force recomputation",
				numAS, maxHeld, net.CacheBudget)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		net := Compile(in)
		const workers = 8
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				// Each worker starts at its own source AS and wraps
				// round, so workers race to compute the same rows.
				for i := 0; i < numAS; i++ {
					a := (i + w*numAS/workers) % numAS
					for b := 0; b < numAS; b++ {
						if !check(t, net, a, b) {
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	})
}
