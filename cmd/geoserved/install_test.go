package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/replica"
)

// TestInstallKeepsServedAndPublishedTogether races rebuild installs
// against churn steps on one builder. An install is one critical
// section, so whenever none is in flight (the checker holds b.mu) the
// snapshot the builder serves is the one its replicas are sent. A
// swap and a publish done outside the mutex interleave with a churn
// step's, and the two disagree until the next install.
func TestInstallKeepsServedAndPublishedTogether(t *testing.T) {
	build := func(seed int64) *world {
		t.Helper()
		w, err := newWorld(seed, core.TestConfig().Scale, true)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	first, other := build(1), build(2)
	snap := first.snap

	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	pub := replica.NewPublisher()
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	b := &builder{cluster: cluster, pub: pub, world: first}

	agree := func() {
		t.Helper()
		b.mu.Lock()
		defer b.mu.Unlock()
		m, ok := pub.Manifest()
		if served := cluster.Snapshot().Digest(); !ok || served != m.Digest {
			t.Errorf("builder serves %.12s while epoch %d published %.12s", served, m.Epoch, m.Digest)
		}
	}

	const steps, rebuilds = 12, 24
	var installs sync.WaitGroup
	installs.Add(2)
	go func() {
		defer installs.Done()
		for i := 0; i < steps; i++ {
			if _, err := b.step(); err != nil {
				t.Errorf("churn step %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer installs.Done()
		// A rebuild installs another world, as the rebuild handler
		// does; two alternate so every install changes the digest.
		worlds := []*world{other, first}
		for i := 0; i < rebuilds; i++ {
			w := worlds[i%2]
			b.mu.Lock()
			_, _, err := b.install(w, w.snap, nil)
			b.mu.Unlock()
			if err != nil {
				t.Errorf("rebuild install %d: %v", i, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { installs.Wait(); close(done) }()
	for checking := true; checking; {
		select {
		case <-done:
			checking = false
		default:
		}
		agree()
	}
	if st := cluster.Status(); st.Snapshot.Swaps != steps+rebuilds || st.DeltaSwaps != steps {
		t.Errorf("%d swaps (%d delta) after %d steps and %d rebuilds", st.Snapshot.Swaps, st.DeltaSwaps, steps, rebuilds)
	}
}

// TestRebuildReplacesChurnWorld pins that a rebuild is kept: once POST
// /v1/admin/rebuild?seed=2 has installed its world, the next churn
// step extends that world, so the served build still names seed 2 and
// carries its label. A churn stream that continued the seed-1 chain
// would put seed 1 back, and one compiled without the label would
// drop it. A builder with no world refuses to step.
func TestRebuildReplacesChurnWorld(t *testing.T) {
	w, err := newWorld(1, 0.02, true)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := geoserve.NewCluster(w.snap, geoserve.ClusterConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&builder{cluster: cluster}).step(); !errors.Is(err, errNoWorld) {
		t.Fatalf("step on a builder with no world: %v, want errNoWorld", err)
	}
	b := &builder{cluster: cluster, world: w}

	rec := httptest.NewRecorder()
	b.rebuildHandler(&options{seed: 1, scale: 0.02, quiet: true})(rec, httptest.NewRequest("POST", "/v1/admin/rebuild?seed=2", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("rebuild: status %d: %s", rec.Code, rec.Body)
	}
	for deadline := time.Now().Add(time.Minute); b.rebuilding.Load(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("rebuild still running after a minute")
		}
	}
	if got := cluster.Snapshot().Build(); got.Seed != 2 {
		t.Fatalf("after the rebuild the builder serves seed %d, want 2", got.Seed)
	}
	if _, err := b.step(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Snapshot().Build(); got.Seed != 2 || got.Label != "seed2/scale0.02" {
		t.Errorf("after a churn step the builder serves build %+v, want seed 2 labelled seed2/scale0.02", got)
	}
}
