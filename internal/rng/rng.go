// Package rng provides deterministic, splittable random streams and the
// heavy-tailed samplers the synthetic-Internet generator needs.
//
// Every stochastic component of the reproduction takes an explicit
// *rng.Stream so a (seed, scale) pair regenerates the same world
// bit-for-bit. Streams are split by name: a child stream's seed is a
// hash of the parent seed and the child name, so adding a new consumer
// never perturbs existing ones — the property that makes ablation
// experiments comparable across runs.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It embeds *rand.Rand, so all
// the standard methods (Intn, Float64, Perm, Shuffle, NormFloat64, ...)
// are available directly. The underlying generator is a bit-exact
// replica of math/rand's (see source.go), so it can be re-seeded in
// place without allocating.
type Stream struct {
	*rand.Rand
	src  *source
	seed int64
}

// New creates a stream from a seed.
func New(seed int64) *Stream {
	src := &source{}
	src.Seed(seed)
	return &Stream{Rand: rand.New(src), src: src, seed: seed}
}

// Seed returns the seed the stream was created with.
func (s *Stream) Seed() int64 { return s.seed }

// splitSeed hashes a parent seed and a child name into the child's
// seed; splitSeedN additionally mixes in an index.
func splitSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	u := uint64(seed)
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return int64(h.Sum64())
}

func splitSeedN(seed int64, name string, n int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	u := uint64(seed)
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	buf2 := [8]byte{}
	un := uint64(n)
	for i := 0; i < 8; i++ {
		buf2[i] = byte(un >> (8 * i))
	}
	h.Write(buf2[:])
	return int64(h.Sum64())
}

// Split derives an independent child stream. The child's sequence
// depends only on the parent seed and the name, not on how much of the
// parent stream has been consumed.
func (s *Stream) Split(name string) *Stream {
	return New(splitSeed(s.seed, name))
}

// SplitN derives a numbered child stream, convenient for per-item
// streams in loops.
func (s *Stream) SplitN(name string, n int) *Stream {
	return New(splitSeedN(s.seed, name, n))
}

// SplitNInto is SplitN with state reuse: when dst is non-nil its
// generator is re-seeded in place and dst is returned; when dst is nil
// a fresh stream is created. Either way the resulting stream's draw
// sequence is identical to SplitN(name, n)'s, so tight loops (one
// child stream per probe) can recycle a single Stream without
// perturbing results. Seeding is lazy either way (see source), so
// reuse saves only the ~5KB state allocation.
func (s *Stream) SplitNInto(dst *Stream, name string, n int) *Stream {
	seed := splitSeedN(s.seed, name, n)
	if dst == nil {
		return New(seed)
	}
	dst.seed = seed
	dst.src.Seed(seed)
	return dst
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp samples an exponential distribution with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// BoundedPareto samples a Pareto(xm, alpha) truncated to [xm, max] by
// inversion, so the tail mass is redistributed rather than clipped
// (clipping would create an atom at max).
func (s *Stream) BoundedPareto(xm, max, alpha float64) float64 {
	if max <= xm {
		return xm
	}
	u := s.Float64()
	ha := math.Pow(max, alpha)
	la := math.Pow(xm, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < xm {
		x = xm
	}
	if x > max {
		x = max
	}
	return x
}

// LogNormal samples exp(N(mu, sigma)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.NormFloat64()*sigma + mu)
}

// Zipf returns a sampler over ranks {1..n} with exponent theta >= 1
// (probability of rank k proportional to 1/k^theta), built on
// math/rand's rejection-inversion Zipf.
func (s *Stream) Zipf(theta float64, n int) func() int {
	if theta < 1.001 {
		theta = 1.001
	}
	z := rand.NewZipf(s.Rand, theta, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) + 1 }
}

// WeightedIndex samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero total weight yields a uniform draw.
func (s *Stream) WeightedIndex(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	r := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Cumulative is a prebuilt alias table-free cumulative-weight sampler
// for repeated draws over the same weights (O(log n) per draw).
type Cumulative struct {
	cum []float64
}

// NewCumulative builds a sampler from non-negative weights.
func NewCumulative(weights []float64) *Cumulative {
	cum := make([]float64, len(weights))
	run := 0.0
	for i, w := range weights {
		if w > 0 {
			run += w
		}
		cum[i] = run
	}
	return &Cumulative{cum: cum}
}

// Sample draws an index with probability proportional to its weight.
func (c *Cumulative) Sample(s *Stream) int {
	n := len(c.cum)
	if n == 0 {
		panic("rng: sampling from empty Cumulative")
	}
	total := c.cum[n-1]
	if total <= 0 {
		return s.Intn(n)
	}
	r := s.Float64() * total
	// Binary search for the first cum value exceeding r.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
