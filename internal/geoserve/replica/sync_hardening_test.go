package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"geonet/internal/geoserve"
)

// TestReplicaDeltaSync pins the happy delta path: a replica already on
// a retained epoch upgrades via /delta and never touches the full
// snapshot endpoint.
func TestReplicaDeltaSync(t *testing.T) {
	pub := NewPublisher()
	s1, s2 := makeSnapshot(t, 1, 30, 8), makeSnapshot(t, 2, 30, 8)
	if _, err := pub.Publish(s1); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("first sync: swapped=%v err=%v", swapped, err)
	}
	if _, err := pub.Publish(s2); err != nil {
		t.Fatal(err)
	}
	if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("delta sync: swapped=%v err=%v", swapped, err)
	}
	st := rep.Status()
	if st.Epoch != 2 || st.Digest != s2.Digest() {
		t.Fatalf("delta sync landed on epoch %d digest %s", st.Epoch, st.Digest)
	}
	if st.DeltaSyncs != 1 || st.DeltaFallbacks != 0 || st.Fetches != 1 {
		t.Fatalf("counters %+v: want 1 delta sync, 0 fallbacks, 1 full fetch", st)
	}
	if rep.Cluster().Snapshot().Digest() != s2.Digest() {
		t.Fatal("served snapshot is not the published epoch")
	}
}

// TestReplicaDeltaIneligibleUsesFullFetch: a replica whose epoch fell
// out of the retention window goes straight to the full fetch without
// recording a fallback (it never attempted a delta).
func TestReplicaDeltaIneligibleUsesFullFetch(t *testing.T) {
	pub := NewPublisher()
	pub.SetRetain(1)
	if _, err := pub.Publish(makeSnapshot(t, 1, 20, 6)); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(makeSnapshot(t, 2, 20, 6)); err != nil {
		t.Fatal(err)
	}
	if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("sync: swapped=%v err=%v", swapped, err)
	}
	st := rep.Status()
	if st.Epoch != 2 || st.DeltaSyncs != 0 || st.DeltaFallbacks != 0 || st.Fetches != 2 {
		t.Fatalf("counters %+v: want two full fetches, no delta traffic", st)
	}
}

// TestReplicaWarmupGate pins warm-up gating: an install the self-probe
// rejects keeps the last-good epoch serving and reports warmup_failed;
// once the probe passes again the swap goes through and the flag
// clears.
func TestReplicaWarmupGate(t *testing.T) {
	pub := NewPublisher()
	s1, s2 := makeSnapshot(t, 3, 20, 6), makeSnapshot(t, 4, 20, 6)
	if _, err := pub.Publish(s1); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	probeErr := errors.New("seeded probe answered garbage")
	rep.warmupFn = func(*geoserve.Cluster, uint64) error { return probeErr }
	if _, err := pub.Publish(s2); err != nil {
		t.Fatal(err)
	}
	swapped, err := rep.SyncOnce(context.Background())
	if swapped || !errors.Is(err, probeErr) {
		t.Fatalf("gated sync: swapped=%v err=%v", swapped, err)
	}
	st := rep.Status()
	if !st.WarmupFailed || st.WarmupFailures != 1 {
		t.Fatalf("status %+v: want warmup_failed", st)
	}
	if rep.Epoch() != 1 || rep.Cluster().Snapshot().Digest() != s1.Digest() {
		t.Fatalf("gated install moved serving to epoch %d", rep.Epoch())
	}

	rep.warmupFn = rep.selfProbe
	if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("recovered sync: swapped=%v err=%v", swapped, err)
	}
	st = rep.Status()
	if st.WarmupFailed || st.Epoch != 2 {
		t.Fatalf("status %+v after recovery", st)
	}
}

// TestReplicaSelfProbeAcceptsRealSnapshot exercises the default probe
// against a real engine+snapshot pair (it must pass, not just be
// stubbed around).
func TestReplicaSelfProbeAcceptsRealSnapshot(t *testing.T) {
	rep := New(Config{BuilderURL: "http://builder"})
	snap := makeSnapshot(t, 5, 40, 10)
	if err := rep.selfProbe(geoserve.NewEngine(snap), 7); err != nil {
		t.Fatalf("self-probe rejected a healthy snapshot: %v", err)
	}
}

// TestReplicaDrain pins the draining contract: /healthz fails with
// status "draining", /statusz says so, and queries are still answered
// from the current epoch so racing requests lose nothing.
func TestReplicaDrain(t *testing.T) {
	pub := NewPublisher()
	snap := makeSnapshot(t, 6, 20, 6)
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	dc, _ := localClient(fleetMux{"rep": rep.Handler()}, nil)

	if status, _ := get(t, dc, "http://rep/healthz"); status != http.StatusOK {
		t.Fatalf("healthz before drain: %d", status)
	}
	rep.Drain()
	if st := rep.Status(); st.State != "draining" {
		t.Fatalf("Status().State %q after Drain", st.State)
	}
	status, body := get(t, dc, "http://rep/healthz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("healthz during drain: %d %s", status, body)
	}
	status, body = get(t, dc, "http://rep/statusz")
	if status != http.StatusOK || !strings.Contains(body, `"state":"draining"`) {
		t.Fatalf("statusz during drain: %d %s", status, body)
	}
	// A query that raced past the failing probe is still answered,
	// tagged with the serving epoch.
	ip := snap.ExactIPs()[0]
	req := httptest.NewRequest("GET", "/v1/locate?mapper=alpha&ip="+geoserve.FormatIPv4(ip), nil)
	rec := httptest.NewRecorder()
	rep.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Geo-Epoch") != "1" {
		t.Fatalf("query during drain: %d epoch %q body %s", rec.Code, rec.Header().Get("X-Geo-Epoch"), rec.Body)
	}
	if n := rep.Status().InFlight; n != 0 {
		t.Fatalf("in-flight %d after the response finished", n)
	}
}

// TestReplicaRetentionRaceRecovers pins the retention-window race: the
// publisher prunes both the replica's delta base and the manifest's
// named epoch between the manifest read and the fetches. The typed
// gone answers must demote delta → full → manifest re-read within one
// SyncOnce, landing on the newest epoch with zero fetch failures — the
// race is bookkept under epoch_gone_races, never billed as a failure
// that would burn a backoff cycle.
func TestReplicaRetentionRaceRecovers(t *testing.T) {
	pub := NewPublisher()
	snaps := make([]*geoserve.Snapshot, 6)
	for i := range snaps {
		snaps[i] = makeSnapshot(t, int64(10+i), 24, 6)
	}
	if _, err := pub.Publish(snaps[0]); err != nil {
		t.Fatal(err)
	}

	// The eviction fires between the replica's manifest read (naming
	// epoch 2, retaining [1 2]) and its delta fetch: four more
	// publishes roll the retention window to [3..6], pruning both the
	// delta base (1) and the manifest's target (2).
	evicted := false
	builder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !evicted && strings.HasPrefix(r.URL.Path, "/v1/replication/delta/") {
			evicted = true
			for _, s := range snaps[2:] {
				if _, err := pub.Publish(s); err != nil {
					t.Error(err)
				}
			}
		}
		pub.Handler().ServeHTTP(w, r)
	})
	client, _ := localClient(fleetMux{"builder": builder}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(snaps[1]); err != nil {
		t.Fatal(err)
	}

	swapped, err := rep.SyncOnce(context.Background())
	if err != nil || !swapped {
		t.Fatalf("raced sync: swapped=%v err=%v", swapped, err)
	}
	if !evicted {
		t.Fatal("eviction hook never fired — the race was not exercised")
	}
	st := rep.Status()
	if st.Epoch != 6 {
		t.Fatalf("raced sync landed on epoch %d, want the re-read manifest's 6", st.Epoch)
	}
	if st.FetchFailures != 0 {
		t.Fatalf("retention race billed as %d fetch failures (last error %q)", st.FetchFailures, st.LastError)
	}
	if st.EpochGoneRaces == 0 {
		t.Fatal("recovered race not counted under epoch_gone_races")
	}
	if st.DeltaFallbacks != 1 {
		t.Fatalf("delta fallbacks %d, want exactly the one demoted attempt", st.DeltaFallbacks)
	}
}

// TestPublishIdenticalSnapshotNoEpochChurn pins no-op churn step
// behaviour: republishing content byte-identical to the current epoch
// (same digest, distinct snapshot object) must not allocate a new
// epoch, so replicas see no epoch bump and do no fetch or re-warm-up.
func TestPublishIdenticalSnapshotNoEpochChurn(t *testing.T) {
	pub := NewPublisher()
	m1, err := pub.Publish(makeSnapshot(t, 21, 24, 6))
	if err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := pub.Publish(makeSnapshot(t, 21, 24, 6)) // identical content
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch != m1.Epoch || m2.Digest != m1.Digest {
		t.Fatalf("no-op republish allocated epoch %d (was %d)", m2.Epoch, m1.Epoch)
	}
	swapped, err := rep.SyncOnce(context.Background())
	if err != nil || swapped {
		t.Fatalf("sync after no-op republish: swapped=%v err=%v", swapped, err)
	}
	st := rep.Status()
	if st.Epoch != m1.Epoch || st.Swaps != 1 || st.Fetches != 1 {
		t.Fatalf("replica saw an epoch bump from identical content: %+v", st)
	}
}

// TestReplicaClusterCountersCarryAcrossDeltaSwap pins serving-counter
// continuity: when an epoch arrives by delta apply the installed
// cluster must carry the previous epoch's lookup totals, batch counts,
// per-shard counters, swap count and wire-protocol counters forward,
// in Status and in the scrape. (The wire counters used to live in the
// per-epoch HTTP handler and read 0 after every install.)
func TestReplicaClusterCountersCarryAcrossDeltaSwap(t *testing.T) {
	pub := NewPublisher()
	s1, s2 := makeSnapshot(t, 31, 32, 8), makeSnapshot(t, 32, 32, 8)
	if _, err := pub.Publish(s1); err != nil {
		t.Fatal(err)
	}
	mux := fleetMux{"builder": pub.Handler()}
	client, _ := localClient(mux, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client, Shards: 2})
	mux["rep"] = rep.Handler()
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	wireFrames := func() (scraped float64, status uint64) {
		_, body := get(t, client, "http://rep/metrics")
		return scrapeSamples(t, body)["geoserve_wire_batch_frames_total"], rep.Status().Serving.Wire.BatchFrames
	}
	for i := 0; i < 3; i++ {
		if code, _ := postWireBin(t, client, "http://rep", 0, wireIPs(t, 8)); code != http.StatusOK {
			t.Fatalf("bin post %d: status %d", i, code)
		}
	}
	scrapedBefore, wireBefore := wireFrames()
	if scrapedBefore != 3 || wireBefore != 3 {
		t.Fatalf("3 bin posts read as %v scraped, %d in Status", scrapedBefore, wireBefore)
	}

	clu := rep.Cluster()
	ips := s1.ExactIPs()[:8]
	for _, ip := range ips {
		clu.Lookup(0, ip)
	}
	out := make([]geoserve.Answer, len(ips))
	if _, err := clu.LookupBatch(0, ips, out); err != nil {
		t.Fatal(err)
	}
	before := clu.Status()
	if before.Lookups == 0 || before.Batches == 0 {
		t.Fatalf("no traffic recorded before the swap: %+v", before)
	}

	if _, err := pub.Publish(s2); err != nil {
		t.Fatal(err)
	}
	if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("delta sync: swapped=%v err=%v", swapped, err)
	}
	if st := rep.Status(); st.DeltaSyncs != 1 {
		t.Fatalf("second epoch did not arrive by delta (%+v) — carry must be pinned on that path", st)
	}

	after := rep.Cluster().Status()
	if after.Snapshot.Digest != s2.Digest() {
		t.Fatalf("cluster serves digest %s, want epoch 2's", after.Snapshot.Digest)
	}
	if after.Lookups < before.Lookups {
		t.Fatalf("lookup counter reset across delta swap: %d -> %d", before.Lookups, after.Lookups)
	}
	if after.Batches < before.Batches {
		t.Fatalf("batch counter reset across delta swap: %d -> %d", before.Batches, after.Batches)
	}
	if after.Snapshot.Swaps != 1 {
		t.Fatalf("swap count %d after one hot swap, want 1", after.Snapshot.Swaps)
	}
	if scraped, wire := wireFrames(); scraped < scrapedBefore || wire < wireBefore {
		t.Fatalf("wire batch frames reset across delta swap: scraped %v -> %v, Status %d -> %d",
			scrapedBefore, scraped, wireBefore, wire)
	}
	var shardBefore, shardAfter uint64
	for _, s := range before.ShardStats {
		shardBefore += s.Lookups
	}
	for _, s := range after.ShardStats {
		shardAfter += s.Lookups
	}
	if shardAfter < shardBefore {
		t.Fatalf("per-shard lookup totals reset across delta swap: %d -> %d", shardBefore, shardAfter)
	}
}

// TestReplicaHealthzNamesOneEpoch pins what a router probe reads. On a
// quiet replica the body is, byte for byte, the five fields of Status
// it always was. While epochs are being installed, every body's epoch,
// digest and snapshot.digest name one published epoch — the body is
// built from one load of the served epoch, not from two status builds
// with a swap between them. Run under -race in CI.
func TestReplicaHealthzNamesOneEpoch(t *testing.T) {
	pub := NewPublisher()
	snap := makeSnapshot(t, 41, 32, 8)
	m, err := pub.Publish(snap)
	if err != nil {
		t.Fatal(err)
	}
	mux := fleetMux{"builder": pub.Handler()}
	client, _ := localClient(mux, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client, Shards: 2})
	mux["rep"] = rep.Handler()
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := rep.Status()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(healthzBody{
		Status: "ok", Epoch: st.Epoch, Digest: st.Digest, StaleEpoch: st.StaleEpoch, Snapshot: st.Serving.Snapshot,
	}); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, client, "http://rep/healthz"); code != http.StatusOK || body != want.String() {
		t.Fatalf("quiet healthz: status %d\n got %s want %s", code, body, want.String())
	}

	var digests sync.Map // epoch → digest, stored before the epoch can be served
	digests.Store(m.Epoch, m.Digest)
	const epochs = 12
	var next []*geoserve.Snapshot
	for step := 1; step <= epochs; step++ {
		snap = churn(t, snap, step)
		next = append(next, snap)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, snap := range next {
			m, err := pub.Publish(snap)
			if err != nil {
				t.Error(err)
				return
			}
			digests.Store(m.Epoch, m.Digest)
			if _, err := rep.SyncOnce(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for probing := true; probing; {
		select {
		case <-done:
			probing = false // one more probe, of the final epoch
		default:
		}
		code, body := get(t, client, "http://rep/healthz")
		var hb healthzBody
		if err := json.Unmarshal([]byte(body), &hb); code != http.StatusOK || err != nil {
			t.Fatalf("healthz during installs: status %d: %v", code, err)
		}
		if d, _ := digests.Load(hb.Epoch); d != hb.Digest || hb.Snapshot.Digest != hb.Digest {
			t.Fatalf("healthz pairs epoch %d (published digest %v) with digest %s and snapshot %s",
				hb.Epoch, d, hb.Digest, hb.Snapshot.Digest)
		}
	}
	if rep.Epoch() != m.Epoch+epochs {
		t.Fatalf("replica ended on epoch %d, want %d", rep.Epoch(), m.Epoch+epochs)
	}
}
