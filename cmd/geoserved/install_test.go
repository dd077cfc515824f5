package main

import (
	"sync"
	"testing"

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
	compile := func(cfg core.Config) (*core.Pipeline, *geoserve.Snapshot) {
		t.Helper()
		p, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := p.ServeWith(core.ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return p, snap
	}
	pipe, snap := compile(core.TestConfig())
	other := core.TestConfig()
	other.Seed = 2
	_, rebuilt := compile(other)

	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	pub := replica.NewPublisher()
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	ch, err := pipe.Churner(core.ServeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := &builder{cluster: cluster, pub: pub, pipe: pipe, ch: ch, prev: snap, events: 4}

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
		// A rebuild lands a snapshot from outside the churn chain; two
		// alternate so every install changes the digest.
		fresh := []*geoserve.Snapshot{rebuilt, snap}
		for i := 0; i < rebuilds; i++ {
			if _, _, err := b.install(fresh[i%2], nil); err != nil {
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
