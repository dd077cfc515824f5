// Package parallel provides the bounded fan-out primitives the
// pipeline's hot paths share: a bounded concurrent task group, chunked
// index loops, and a map-reduce with per-chunk accumulators merged in
// chunk order. Every primitive runs at most GOMAXPROCS goroutines at
// once; GOMAXPROCS is the one parallelism bound (the commands' -workers
// flag sets it).
//
// Determinism discipline: every reduction merges partial results in a
// fixed (chunk-index) order, and callers pick chunk counts independent
// of GOMAXPROCS. Integer tallies are exact under any grouping; float
// accumulations stay bit-identical because neither the partition nor
// the merge order ever changes — only how many chunks run at once
// does. This is what lets core.Run promise byte-identical reports at
// any GOMAXPROCS.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs the functions with at most GOMAXPROCS in flight at once and
// waits for all of them; GOMAXPROCS 1 degenerates to a serial loop.
func Do(fns ...func()) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || len(fns) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			fn()
		}()
	}
	wg.Wait()
}

// ForEach invokes fn(i) for every i in [0, n), fanning out across at
// most GOMAXPROCS goroutines. Items are handed out in ascending chunks
// for locality, but fn must not depend on cross-item order and must be
// safe to call concurrently.
func ForEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	grab := n / (workers * 8)
	if grab < 1 {
		grab = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grab))) - grab
				if lo >= n {
					return
				}
				hi := lo + grab
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Map computes fn(i) for every i in [0, n) concurrently and returns
// the results in index order regardless of scheduling — the ordered
// half of a map-reduce.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// Reduce runs a map-reduce with per-chunk accumulators and an ordered
// merge: work(c) builds chunk c's partial result, then merge folds the
// partials in ascending chunk order into the first one. Pick chunks
// independently of GOMAXPROCS and float reductions stay bit-identical
// at any parallelism.
func Reduce[A any](chunks int, work func(chunk int) A, merge func(into, from A) A) A {
	var acc A
	if chunks <= 0 {
		return acc
	}
	parts := Map(chunks, work)
	acc = parts[0]
	for _, p := range parts[1:] {
		acc = merge(acc, p)
	}
	return acc
}

// SumFloats is the element-wise merge for Reduce over per-chunk tally
// arrays: it adds from into into and returns into. Both slices must
// have the same length.
func SumFloats(into, from []float64) []float64 {
	for i := range into {
		into[i] += from[i]
	}
	return into
}

// Chunks splits [0, n) into at most parts contiguous [lo, hi) ranges
// of near-equal size, in ascending order. Empty ranges are omitted.
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	for c := 0; c < parts; c++ {
		lo := c * n / parts
		hi := (c + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
