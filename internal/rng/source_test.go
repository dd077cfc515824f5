package rng

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestSourceMatchesStdlib pins the bit-exact equivalence between the
// replica source and math/rand: same Uint64/Int63 sequences for a
// spread of seeds, including the 0 and negative special cases, and
// after in-place re-seeding.
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, 2, -1, -12345, 89482311, 1 << 31, math.MaxInt64, math.MinInt64, 4242424242}
	for i := int64(0); i < 200; i++ {
		seeds = append(seeds, i*2654435761)
	}
	replica := &source{}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		replica.Seed(seed)          // reuse across seeds exercises in-place re-seeding
		for j := 0; j < 1300; j++ { // > 2 full passes over the 607-word state
			if g, w := replica.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, stdlib %d", seed, j, g, w)
			}
		}
		if g, w := replica.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 = %d, stdlib %d", seed, g, w)
		}
	}
}

// TestStreamMatchesStdlibRand pins the full Stream stack (replica
// source under *rand.Rand) against a rand.Rand on the stdlib source.
func TestStreamMatchesStdlibRand(t *testing.T) {
	s := New(7)
	w := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if g, want := s.Float64(), w.Float64(); g != want {
			t.Fatalf("draw %d: Float64 = %v, stdlib %v", i, g, want)
		}
	}
	for i := 0; i < 500; i++ {
		if g, want := s.NormFloat64(), w.NormFloat64(); g != want {
			t.Fatalf("draw %d: NormFloat64 = %v, stdlib %v", i, g, want)
		}
		if g, want := s.Intn(1000), w.Intn(1000); g != want {
			t.Fatalf("draw %d: Intn = %v, stdlib %v", i, g, want)
		}
	}
}

// TestSplitNInto proves the reuse path draws the same sequence as a
// freshly created SplitN child.
func TestSplitNInto(t *testing.T) {
	parent := New(99)
	scratch := New(0) // arbitrary initial state; re-seeded below
	for n := 0; n < 50; n++ {
		fresh := parent.SplitN("probe", n)
		reused := parent.SplitNInto(scratch, "probe", n)
		if reused != scratch {
			t.Fatal("SplitNInto did not return the reused stream")
		}
		if fresh.Seed() != reused.Seed() {
			t.Fatalf("n=%d: seeds differ: %d vs %d", n, fresh.Seed(), reused.Seed())
		}
		for j := 0; j < 100; j++ {
			if g, w := reused.Float64(), fresh.Float64(); g != w {
				t.Fatalf("n=%d draw %d: %v vs %v", n, j, g, w)
			}
		}
	}
	if got := parent.SplitNInto(nil, "probe", 3); got == nil {
		t.Fatal("SplitNInto(nil, ...) returned nil")
	}
}

// TestLazySeedMatchesStdlib pins lazy seeding against math/rand when a
// source is re-seeded in place after k draws, for every k from 0 past
// full materialisation (the tap words are all filled after 273 draws,
// the feed words after 334): stale words left by the previous seed, at
// any point of its lazy phase, must never leak into the new stream.
func TestLazySeedMatchesStdlib(t *testing.T) {
	replica := &source{}
	for k := 0; k <= 700; k++ {
		seeds := []int64{0, 1, -1, math.MinInt64, 89482311, int64(k) * 7919}
		for _, seed := range seeds {
			replica.Seed(int64(k) ^ seed) // a different stream to draw k from
			for j := 0; j < k; j++ {
				replica.Uint64()
			}
			replica.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for j := 0; j < 1300; j++ {
				if g, w := replica.Uint64(), want.Uint64(); g != w {
					t.Fatalf("k=%d seed %d draw %d: Uint64 = %d, stdlib %d", k, seed, j, g, w)
				}
			}
		}
	}

	// The Stream level: a child re-seeded into a stream that has drawn
	// k values equals a fresh SplitN child on every method the pipeline
	// draws through.
	parent := New(5)
	for _, k := range []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 700} {
		dst := parent.SplitN("scratch", k)
		for j := 0; j < k; j++ {
			dst.Uint64()
		}
		reused := parent.SplitNInto(dst, "trace", k)
		fresh := parent.SplitN("trace", k)
		for j := 0; j < 400; j++ {
			if g, w := reused.Bool(0.3), fresh.Bool(0.3); g != w {
				t.Fatalf("k=%d draw %d: Bool = %v, SplitN %v", k, j, g, w)
			}
			if g, w := reused.Intn(1000), fresh.Intn(1000); g != w {
				t.Fatalf("k=%d draw %d: Intn = %v, SplitN %v", k, j, g, w)
			}
			if g, w := reused.Float64(), fresh.Float64(); g != w {
				t.Fatalf("k=%d draw %d: Float64 = %v, SplitN %v", k, j, g, w)
			}
		}
	}
}

// TestSourceSize pins the source to its malloc size class: one field
// more and every stream rounds up to the next class, 512 bytes more.
func TestSourceSize(t *testing.T) {
	if n := unsafe.Sizeof(source{}); n != 4864 {
		t.Fatalf("source is %d bytes, want 4864", n)
	}
}

// BenchmarkSplitNIntoTrace is mercator's per-trace pattern: re-seed one
// recycled child stream, then draw about one Bool per hop.
func BenchmarkSplitNIntoTrace(b *testing.B) {
	parent := New(1)
	child := parent.SplitN("trace", 0)
	hits := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		child = parent.SplitNInto(child, "trace", i)
		for h := 0; h < 16; h++ {
			if child.Bool(0.5) {
				hits++
			}
		}
	}
	if hits < 0 {
		b.Fatal(hits)
	}
}
