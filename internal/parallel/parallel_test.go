package parallel

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// atProcs runs fn with GOMAXPROCS set to n, the one bound every
// primitive here reads, and restores the previous value.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestDoRunsEverything(t *testing.T) {
	for _, procs := range []int{1, 3, 16} {
		var n atomic.Int64
		fns := make([]func(), 10)
		for i := range fns {
			fns[i] = func() { n.Add(1) }
		}
		atProcs(procs, func() { Do(fns...) })
		if n.Load() != 10 {
			t.Errorf("GOMAXPROCS=%d: ran %d of 10 fns", procs, n.Load())
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 5, 1000} {
			seen := make([]atomic.Int32, n)
			atProcs(procs, func() { ForEach(n, func(i int) { seen[i].Add(1) }) })
			for i := range seen {
				if seen[i].Load() != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d visited %d times",
						procs, n, i, seen[i].Load())
				}
			}
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	var got []int
	atProcs(8, func() { got = Map(100, func(i int) int { return i * i }) })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d", i, v)
		}
	}
}

func TestReduceIsDeterministicAcrossWorkers(t *testing.T) {
	// Float accumulation: same fixed chunking must give bit-identical
	// results at every GOMAXPROCS (the package's core promise).
	const n, chunks = 10000, 64
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * 1e-3
	}
	sum := func(procs int) (out []float64) {
		atProcs(procs, func() {
			out = Reduce(chunks,
				func(c int) []float64 {
					lo, hi := c*n/chunks, (c+1)*n/chunks
					acc := make([]float64, 4)
					for i := lo; i < hi; i++ {
						acc[i%4] += xs[i]
					}
					return acc
				},
				SumFloats)
		})
		return out
	}
	want := sum(1)
	for _, p := range []int{2, 4, 13} {
		if got := sum(p); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: reduce differed from serial", p)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	got := Reduce(0,
		func(int) int { return 1 },
		func(a, b int) int { return a + b })
	if got != 0 {
		t.Errorf("empty reduce = %d, want zero value", got)
	}
}

func TestChunksPartition(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {10, 3}, {100, 7}, {5, 5}, {3, 100},
	} {
		cs := Chunks(tc.n, tc.parts)
		next := 0
		for _, c := range cs {
			if c[0] != next || c[1] <= c[0] {
				t.Fatalf("Chunks(%d,%d): bad range %v after %d", tc.n, tc.parts, c, next)
			}
			next = c[1]
		}
		if next != tc.n {
			t.Fatalf("Chunks(%d,%d) covers [0,%d)", tc.n, tc.parts, next)
		}
	}
}
