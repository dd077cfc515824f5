package replica

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBackoffDefaults(t *testing.T) {
	p := BackoffPolicy{}.withDefaults()
	if p.Base != 250*time.Millisecond || p.Cap != 30*time.Second || p.Jitter != 0.2 {
		t.Fatalf("defaults %+v", p)
	}
	if j := (BackoffPolicy{Jitter: -3}.withDefaults()).Jitter; j != 0 {
		t.Fatalf("negative jitter normalised to %v, want 0", j)
	}
	if j := (BackoffPolicy{Jitter: 5}.withDefaults()).Jitter; j != 1 {
		t.Fatalf("oversized jitter normalised to %v, want 1", j)
	}
}

// TestBackoffSchedule pins the jitter-free schedule: doubling from
// Base, saturating at Cap.
func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name string
		p    BackoffPolicy
		want []time.Duration
	}{
		{
			name: "doubles to cap",
			p:    BackoffPolicy{Base: 100 * time.Millisecond, Cap: 1600 * time.Millisecond, Jitter: -1},
			want: []time.Duration{
				100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
				800 * time.Millisecond, 1600 * time.Millisecond,
				1600 * time.Millisecond, 1600 * time.Millisecond,
			},
		},
		{
			name: "cap below base clamps immediately",
			p:    BackoffPolicy{Base: time.Second, Cap: 300 * time.Millisecond, Jitter: -1},
			want: []time.Duration{300 * time.Millisecond, 300 * time.Millisecond},
		},
		{
			name: "deep failure count saturates instead of overflowing",
			p:    BackoffPolicy{Base: time.Millisecond, Cap: time.Second, Jitter: -1},
			want: func() []time.Duration {
				out := make([]time.Duration, 200)
				d := time.Millisecond
				for i := range out {
					out[i] = d
					if d < time.Second {
						d *= 2
					}
					if d > time.Second {
						d = time.Second
					}
				}
				return out
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBackoff(tc.p, 1)
			for i, want := range tc.want {
				if got := b.Next(); got != want {
					t.Fatalf("delay %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestBackoffJitterBounds checks every jittered delay lands in
// [d*(1-J), d*(1+J)] of the deterministic schedule and never exceeds
// the cap.
func TestBackoffJitterBounds(t *testing.T) {
	p := BackoffPolicy{Base: 100 * time.Millisecond, Cap: 5 * time.Second, Jitter: 0.5}
	for seed := int64(1); seed <= 20; seed++ {
		b := NewBackoff(p, seed)
		ideal := NewBackoff(BackoffPolicy{Base: p.Base, Cap: p.Cap, Jitter: -1}, 1)
		for i := 0; i < 12; i++ {
			d, base := b.Next(), ideal.Next()
			lo := time.Duration(float64(base) * (1 - p.Jitter))
			hi := time.Duration(float64(base) * (1 + p.Jitter))
			if hi > p.Cap {
				hi = p.Cap
			}
			if d < lo || d > hi {
				t.Fatalf("seed %d delay %d = %v outside [%v, %v]", seed, i, d, lo, hi)
			}
		}
	}
}

// TestBackoffDeterminism pins that the schedule is a pure function of
// (policy, seed, fail count).
func TestBackoffDeterminism(t *testing.T) {
	p := BackoffPolicy{Base: 50 * time.Millisecond, Cap: 10 * time.Second, Jitter: 0.3}
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(p, seed)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b, c := seq(42), seq(42), seq(43)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 delay %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical jittered schedules")
	}
}

// TestBackoffConcurrentCancellation runs a fleet of replicas whose
// builder never answers, so every Run loop is parked deep inside a
// long backoff sleep, then cancels all their contexts at once: each
// loop must return the context error promptly instead of serving out
// its multi-minute delay, and the per-replica Backoff state must stay
// isolated under the concurrency (the race detector patrols this test
// in CI).
func TestBackoffConcurrentCancellation(t *testing.T) {
	client, _ := localClient(fleetMux{}, nil) // no hosts: every sync fails fast
	const fleet = 16
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, fleet)
	var started sync.WaitGroup
	for i := 0; i < fleet; i++ {
		started.Add(1)
		rep := New(Config{
			BuilderURL: "http://nowhere",
			Client:     client,
			Seed:       int64(i + 1),
			Backoff:    BackoffPolicy{Base: 10 * time.Minute, Cap: time.Hour},
		})
		go func() {
			started.Done()
			errs <- rep.Run(ctx)
		}()
	}
	started.Wait()
	// Give every loop time to fail its first sync and enter the sleep.
	time.Sleep(20 * time.Millisecond)
	cancel()
	deadline := time.After(5 * time.Second)
	for i := 0; i < fleet; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("replica %d returned %v, want context.Canceled", i, err)
			}
		case <-deadline:
			t.Fatalf("%d of %d replicas still asleep in backoff after cancellation", fleet-i, fleet)
		}
	}
}

// TestBackoffCancelledMidSync pins the other race: cancellation landing
// while SyncOnce itself is in flight (not in the sleep) still surfaces
// the context error rather than a retry.
func TestBackoffCancelledMidSync(t *testing.T) {
	pub := NewPublisher()
	if _, err := pub.Publish(makeSnapshot(t, 9, 20, 6)); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if swapped, err := rep.SyncOnce(ctx); swapped || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sync: swapped=%v err=%v", swapped, err)
	}
	if err := rep.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with dead context returned %v", err)
	}
}

func TestBackoffReset(t *testing.T) {
	b := NewBackoff(BackoffPolicy{Base: 100 * time.Millisecond, Cap: time.Minute, Jitter: -1}, 1)
	for i := 0; i < 4; i++ {
		b.Next()
	}
	if b.fails != 4 {
		t.Fatalf("fails %d, want 4", b.fails)
	}
	b.Reset()
	if b.fails != 0 {
		t.Fatalf("fails after reset %d", b.fails)
	}
	if d := b.Next(); d != 100*time.Millisecond {
		t.Fatalf("first delay after reset %v, want base", d)
	}
}
