package rng

import "math/rand"

// source is a bit-exact replica of math/rand's additive lagged-Fibonacci
// generator with lazy seeding. Seeding dominates stream creation cost:
// the pipeline derives a short-lived child stream per probe, and
// math/rand's Seed runs 1841 steps of a Lehmer LCG
//
//	x' = 48271·x mod 2³¹−1
//
// to fill all 607 state words, of which a 16-draw trace reads ~30.
// Here Seed is O(1): it keeps the effective Lehmer seed x0 and leaves
// the state lazy. State word i is cooked[i] XOR the three chain values
// x₂₁₊₃ᵢ, x₂₂₊₃ᵢ, x₂₃₊₃ᵢ, and xₙ = x0·48271ⁿ, so a word is computed
// on its own by one jump-ahead multiply (the power comes from a table
// built at init) and two Lehmer steps, all with a widening multiply
// and a Mersenne fold (2³¹ ≡ 1 mod 2³¹−1) instead of division. A word
// is filled the first time a draw reads it: the feed words 333…0 over
// the first 334 draws and the tap words 606…334 over the first 273.
// From draw 335 on every word has been filled (or overwritten) and
// Uint64 is the stdlib recurrence. The state transition and output
// function are the stdlib's own, so every stream — and therefore every
// generated world and report — is bit-identical to one built on
// rand.NewSource. TestSourceMatchesStdlib and TestLazySeedMatchesStdlib
// pin that equivalence.
//
// Unlike rand.NewSource, a source can also be re-seeded in place
// (SplitNInto), so per-probe streams reuse one ~5KB state array instead
// of allocating a fresh one per trace. The struct is exactly 4 864
// bytes, a malloc size class (TestSourceSize): the stdlib's tap index
// is not stored, since it is always feed+273 mod 607.
type source struct {
	vec  [rngLen]int64
	feed int32
	// x0 is the effective Lehmer seed the state words derive from
	// while some are unfilled, and 0 (never an effective seed) after.
	x0 uint32
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	lehmerA = 48271
	// seedZero is what math/rand substitutes for an effective seed of 0
	// (a Lehmer LCG fixes the point 0).
	seedZero = 89482311
)

// cooked is math/rand's rngCooked additive-generator priming table. The
// stdlib does not export it, so init recovers it from an actual
// rand.NewSource: the first rngLen outputs of a freshly seeded source
// determine its initial state by back-substitution (each output is the
// sum of two state words, and every written word is itself an observed
// output), and the initial state is the seed-derived XOR stream XORed
// with the cooked table.
var cooked [rngLen]uint64

// jump[i] is 48271^(21+3i) mod 2³¹−1: the multiplier that takes a seed
// x0 to the first of the three chain values state word i XORs in.
var jump [rngLen]uint64

func init() {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]uint64
	for i := range out {
		out[i] = src.Uint64()
	}
	// Step s (1-based) reads vec[feed]+vec[tap] and stores the sum at
	// feed, with feed starting at rngLen-rngTap-1 = 333 and tap at 606,
	// both decrementing mod 607. Writes always store observed outputs,
	// so any equation whose tap operand was previously written yields
	// the original feed word directly:
	//   s in 274..607: vec0[feed_s] = out_s − out_{s−273}
	// which covers feed indices 60..0 and 606..334; the remaining
	// 333..61 follow from the first-phase equations
	//   s in 1..273:   vec0[feed_s] = out_s − vec0[tap_s]
	// whose tap words 606..334 are recovered by then. Addition wraps
	// mod 2⁶⁴, so uint64 subtraction inverts it exactly.
	var vec0 [rngLen]uint64
	for s := 274; s <= 334; s++ {
		vec0[334-s] = out[s-1] - out[s-274]
	}
	for s := 335; s <= rngLen; s++ {
		vec0[941-s] = out[s-1] - out[s-274]
	}
	for s := 1; s <= 273; s++ {
		vec0[334-s] = out[s-1] - vec0[rngLen-s]
	}
	// vec0[i] = seedXOR(seed, i) ^ cooked[i].
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = lehmerStep(x)
	}
	for i := range jump {
		jump[i] = x
		x = lehmerStep(lehmerStep(lehmerStep(x)))
	}
	for i := range cooked {
		cooked[i] = vec0[i] ^ seedXOR(seed, int32(i))
	}
}

// lehmerStep advances x = 48271·x mod 2³¹−1 for x in [0, 2³¹−1).
func lehmerStep(x uint64) uint64 { return mulMod(lehmerA, x) }

// mulMod returns a·b mod 2³¹−1 for a, b in [0, 2³¹−1) using a Mersenne
// fold instead of division: p = q·2³¹ + r ≡ q + r (mod 2³¹−1). One fold
// leaves a value under 2³², a second one under 2³¹.
func mulMod(a, b uint64) uint64 {
	p := a * b // < 2⁶²
	x := (p >> 31) + (p & int32max)
	x = (x >> 31) + (x & int32max)
	if x >= int32max {
		x -= int32max
	}
	return x
}

// Seed resets the generator to the exact state rand.NewSource(seed)
// would have, lazily: no state word is computed until a draw reads it.
func (s *source) Seed(seed int64) {
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint32(seed)
}

// seedXOR is the seed-derived half of state word i: the Lehmer chain
// values x₂₁₊₃ᵢ, x₂₂₊₃ᵢ, x₂₃₊₃ᵢ from x0, jumped to directly.
func seedXOR(x0 uint64, i int32) uint64 {
	x := mulMod(x0, jump[i])
	u := x << 40
	x = lehmerStep(x)
	u ^= x << 20
	return u ^ lehmerStep(x)
}

// word computes state word i of a fresh rand.NewSource seeded to x0.
func (s *source) word(i int32) int64 { return int64(seedXOR(uint64(s.x0), i) ^ cooked[i]) }

// fill computes the words a lazy draw reads for the first time. The
// feed word of each of the first 334 draws (333…0) has not been read
// yet; the tap word has not while it is at or above 334, which holds
// for the first 273 draws. Every later read hits a word an earlier draw
// filled or wrote, so the draw whose feed word is 0 ends the lazy phase.
func (s *source) fill(tap int32) {
	s.vec[s.feed] = s.word(s.feed)
	if tap >= rngLen-rngTap {
		s.vec[tap] = s.word(tap)
	}
	if s.feed == 0 {
		s.x0 = 0
	}
}

// Uint64 mirrors math/rand's rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	tap := s.feed + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	if s.x0 != 0 {
		s.fill(tap)
	}
	x := s.vec[s.feed] + s.vec[tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 mirrors math/rand's rngSource.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
