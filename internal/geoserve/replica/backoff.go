package replica

import (
	"time"

	"geonet/internal/rng"
)

// BackoffPolicy shapes the retry schedule replicas use between failed
// syncs: exponential doubling from Base, capped at Cap, with
// symmetric multiplicative jitter so a fleet of replicas that lost the
// builder together does not stampede it together.
type BackoffPolicy struct {
	// Base is the first delay (default 250ms).
	Base time.Duration
	// Cap bounds every delay (default 30s).
	Cap time.Duration
	// Jitter spreads each delay uniformly over [d*(1-J), d*(1+J)]
	// (default 0.2; 0 disables, values cap at 1).
	Jitter float64
}

func (p BackoffPolicy) withDefaults() BackoffPolicy {
	if p.Base <= 0 {
		p.Base = 250 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 30 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff is one consumer's schedule: Next returns the delay before
// the next retry (doubling, capped, jittered by the seeded stream —
// deterministic per seed, so tests pin the exact schedule), and Reset
// rearms after a success. Not safe for concurrent use.
type Backoff struct {
	policy BackoffPolicy
	rng    *rng.Stream
	fails  int
}

// NewBackoff builds a schedule from the policy (zero fields take the
// defaults above) and a jitter seed.
func NewBackoff(policy BackoffPolicy, seed int64) *Backoff {
	return &Backoff{policy: policy.withDefaults(), rng: rng.New(seed)}
}

// Next records a failure and returns the delay before the next try.
func (b *Backoff) Next() time.Duration {
	d := b.policy.Base
	// Doubling with shift-overflow protection: past 62 doublings (or
	// whenever the cap is hit) the exponential phase is over.
	for i := 0; i < b.fails && d < b.policy.Cap; i++ {
		d *= 2
	}
	if d > b.policy.Cap {
		d = b.policy.Cap
	}
	b.fails++
	if j := b.policy.Jitter; j > 0 {
		// Uniform in [1-j, 1+j]; the draw happens even at the cap so
		// the schedule stays a pure function of (policy, seed, fails).
		d = time.Duration(float64(d) * (1 - j + 2*j*b.rng.Float64()))
	}
	if d > b.policy.Cap {
		d = b.policy.Cap
	}
	return d
}

// Reset rearms the schedule after a success.
func (b *Backoff) Reset() { b.fails = 0 }
