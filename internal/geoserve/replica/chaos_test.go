package replica

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
)

// TestChaosCorruptFetchEventuallyRecovers hammers the replication path
// with seeded random drops, truncations and bit-flips and proves the
// replica (a) never swaps in anything but a published snapshot and
// (b) converges on every published epoch anyway. The fault schedule is
// a pure function of the seed, so this chaos run replays exactly.
func TestChaosCorruptFetchEventuallyRecovers(t *testing.T) {
	prob := faultinject.Probabilistic(99, faultinject.Probabilities{
		Drop: 0.2, Truncate: 0.2, Flip: 0.15,
	})
	decide := func(attempt int, req *http.Request) faultinject.Fault {
		if req.URL.Host == "builder" {
			return prob(attempt, req)
		}
		return faultinject.Clean
	}
	pub := NewPublisher()
	client, tr := localClient(fleetMux{"builder": pub.Handler()}, decide)
	rep := New(Config{BuilderURL: "http://builder", Client: client})

	published := map[string]bool{}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		snap := makeSnapshot(t, int64(20+epoch), 25+int(epoch), 6)
		if _, err := pub.Publish(snap); err != nil {
			t.Fatal(err)
		}
		published[snap.Digest()] = true
		for attempts := 0; rep.Epoch() != epoch; attempts++ {
			if attempts > 200 {
				t.Fatalf("epoch %d never converged; status %+v counters %+v", epoch, rep.Status(), tr.Counters())
			}
			rep.SyncOnce(context.Background())
			// The invariant under fire: whatever is serving was published.
			if e := rep.Cluster(); e != nil && !published[e.Snapshot().Digest()] {
				t.Fatalf("serving an unpublished snapshot at epoch %d", rep.Epoch())
			}
		}
	}
	c := tr.Counters()
	if c.Drops+c.Truncations+c.Flips == 0 {
		t.Fatalf("chaos run injected no faults (counters %+v) — seed too tame", c)
	}
	if st := rep.Status(); st.FetchFailures == 0 {
		t.Fatalf("replica saw no failures under chaos: %+v", st)
	}
}

// TestChaosBuilderDeathFleetStaysUp kills the builder after one epoch:
// replicas keep serving that epoch (reporting stale), and the router
// keeps answering correctly off them.
func TestChaosBuilderDeathFleetStaysUp(t *testing.T) {
	snap := makeSnapshot(t, 30, 30, 8)
	var builderDead atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if builderDead.Load() && req.URL.Host == "builder" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := newFleet(t, 2, snap, decide)
	builderDead.Store(true)

	// Syncs now fail, but nothing stops serving.
	for i, rep := range f.replicas {
		if _, err := rep.SyncOnce(context.Background()); err == nil {
			t.Fatalf("replica %d synced against a dead builder", i)
		}
		rep.now = func() time.Time { return time.Now().Add(time.Hour) }
		st := rep.Status()
		if st.State != "serving" || st.Epoch != 1 || !st.StaleEpoch {
			t.Fatalf("replica %d status %+v, want serving epoch 1 stale", i, st)
		}
	}

	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)
	f.router.ProbeOnce(context.Background())
	if st := f.router.Status(); st.HealthyReplicas != 2 || st.Epoch != 1 {
		t.Fatalf("router status with dead builder %+v", st)
	}
	for _, q := range []string{"/v1/locate?ip=10.1.0.1", "/v1/locate?ip=10.5.0.66&mapper=beta"} {
		rCode, rBody := get(t, f.client, "http://router"+q)
		dCode, dBody := get(t, dc, "http://direct"+q)
		if rCode != dCode || rBody != dBody {
			t.Fatalf("%s during builder outage: router (%d) %q vs engine (%d) %q", q, rCode, rBody, dCode, dBody)
		}
	}
	ips := batchIPs(20)
	resp, body := postBatch(t, f.client, "http://router", "beta", ips)
	_, want := postBatch(t, dc, "http://direct", "beta", ips)
	if resp.StatusCode != 200 || body != want {
		t.Fatalf("batch during builder outage: %d %q", resp.StatusCode, body)
	}
}

// TestChaosReplicaFlapNoWrongAnswers flaps one replica up and down
// through several cycles. The router must never return a wrong or
// failed answer — ejection, retry and readmission absorb the flapping
// invisibly.
func TestChaosReplicaFlapNoWrongAnswers(t *testing.T) {
	snap := makeSnapshot(t, 31, 30, 8)
	var flapping atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if flapping.Load() && req.URL.Host == "rep2" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := newFleet(t, 3, snap, decide)
	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)
	_, wantSingle := get(t, dc, "http://direct/v1/locate?ip=10.4.0.2")
	ips := batchIPs(15)
	_, wantBatch := postBatch(t, dc, "http://direct", "alpha", ips)

	for cycle := 0; cycle < 6; cycle++ {
		flapping.Store(cycle%2 == 0)
		f.router.ProbeOnce(context.Background())
		for i := 0; i < 5; i++ {
			if code, body := get(t, f.client, "http://router/v1/locate?ip=10.4.0.2"); code != 200 || body != wantSingle {
				t.Fatalf("cycle %d lookup %d: %d %q", cycle, i, code, body)
			}
		}
		resp, body := postBatch(t, f.client, "http://router", "alpha", ips)
		if resp.StatusCode != 200 || body != wantBatch {
			t.Fatalf("cycle %d batch: %d %q", cycle, resp.StatusCode, body)
		}
	}
	st := f.router.Status()
	var r2 RouterReplica
	for _, m := range st.Replicas {
		if m.URL == repURL(2) {
			r2 = m
		}
	}
	if r2.Ejections < 2 || r2.Readmissions < 2 {
		t.Fatalf("rep2 lifecycle %+v, want repeated ejection+readmission", r2)
	}
	if st.Sheds != 0 {
		t.Fatalf("router shed during flap: %+v", st)
	}
}
