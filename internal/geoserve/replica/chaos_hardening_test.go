package replica

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

var update = flag.Bool("update", false, "rewrite golden files")

// churn derives the next epoch's snapshot from the previous one the
// way a pipeline re-run does: a sparse subset of intervals gets new
// answers, everything else is untouched — exactly the shape delta
// epochs exist for.
func churn(tb testing.TB, snap *geoserve.Snapshot, step int) *geoserve.Snapshot {
	tb.Helper()
	// The answers of every 7th row of a mapper's records, counted
	// across the snapshot's groups with all prefix rows ahead of all
	// exact rows, move.
	np := snap.NumPrefixes()
	gs := snap.Groups()
	pRows, iRows := 0, 0 // prefix and exact rows in the groups before g
	for i := range gs {
		g := &gs[i]
		g.Pages = slices.Clone(g.Pages)
		for m := range g.Pages {
			// Group shares the snapshot's memory: mutate a clone.
			page := bytes.Clone(g.Pages[m])
			g.Pages[m] = page
			for r := 0; r*geoserve.RecordSize < len(page); r++ {
				row := pRows + r
				if r >= len(g.Prefixes) {
					row = np + iRows + r - len(g.Prefixes)
				}
				rec := page[r*geoserve.RecordSize:][:geoserve.RecordSize]
				if row%7 != step%7 || rec[28]&1 == 0 { // not this step's, or not found
					continue
				}
				// lat, lon and radius are the record's three leading f64s.
				for f, delta := range []float64{float64(step), -float64(step), 1} {
					v := math.Float64frombits(binary.LittleEndian.Uint64(rec[8*f:]))
					binary.LittleEndian.PutUint64(rec[8*f:], math.Float64bits(v/2+delta))
				}
			}
		}
		pRows, iRows = pRows+len(g.Prefixes), iRows+len(g.IPs)
	}
	out, err := geoserve.Derive(nil, snap.Header(), gs)
	if err != nil {
		tb.Fatalf("churn step %d: %v", step, err)
	}
	if out.Digest() == snap.Digest() {
		tb.Fatalf("churn step %d changed nothing", step)
	}
	return out
}

// transcript serves a fixed probe set through the handler and returns
// the full request/response log.
func transcript(tb testing.TB, h http.Handler, snap *geoserve.Snapshot) string {
	tb.Helper()
	var b strings.Builder
	probes := []string{
		"/v1/locate?ip=" + geoserve.FormatIPv4(snap.Prefixes()[0]+9),
		"/v1/locate?ip=" + geoserve.FormatIPv4(snap.ExactIPs()[1]) + "&mapper=beta",
		"/v1/locate?ip=250.0.0.1",
		"/v1/prefixes",
	}
	for _, p := range probes {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", p, nil))
		fmt.Fprintf(&b, "GET %s -> %d epoch=%s\n%s\n", p, w.Code, w.Header().Get("X-Geo-Epoch"), w.Body.String())
	}
	return b.String()
}

// TestGoldenDeltaChurnByteIdentity drives two replicas — one syncing
// by delta, one from a builder that retains only its current epoch and
// so always fetches in full — through a 3-epoch churn sequence and
// pins, at every step, that the delta-synced state is byte-identical
// to the full-fetch state: same content digest, same re-encoded
// snapfile bytes, same served transcript. The per-epoch digests and
// transcript hashes are additionally pinned in
// testdata/golden_delta_churn.txt (refresh with -update).
func TestGoldenDeltaChurnByteIdentity(t *testing.T) {
	pub, fullPub := NewPublisher(), NewPublisher()
	fullPub.SetRetain(1)
	client, _ := localClient(fleetMux{"builder": pub.Handler(), "fullbuilder": fullPub.Handler()}, nil)
	deltaRep := New(Config{BuilderURL: "http://builder", Client: client})
	fullRep := New(Config{BuilderURL: "http://fullbuilder", Client: client})

	var golden strings.Builder
	snap := makeSnapshot(t, 41, 40, 10)
	for epoch := uint64(1); epoch <= 4; epoch++ {
		if epoch > 1 {
			snap = churn(t, snap, int(epoch))
		}
		for _, p := range []*Publisher{pub, fullPub} {
			if _, err := p.Publish(snap); err != nil {
				t.Fatal(err)
			}
		}
		for i, rep := range []*Replica{deltaRep, fullRep} {
			if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
				t.Fatalf("epoch %d replica %d: swapped=%v err=%v", epoch, i, swapped, err)
			}
		}
		dSnap, fSnap := deltaRep.Cluster().Snapshot(), fullRep.Cluster().Snapshot()
		if dSnap.Digest() != fSnap.Digest() || dSnap.Digest() != snap.Digest() {
			t.Fatalf("epoch %d: delta-synced digest %s, full %s, published %s",
				epoch, dSnap.Digest(), fSnap.Digest(), snap.Digest())
		}
		dBlob, err := snapfile.Encode(dSnap, epoch)
		if err != nil {
			t.Fatal(err)
		}
		fBlob, err := snapfile.Encode(fSnap, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dBlob, fBlob) {
			t.Fatalf("epoch %d: delta-synced snapshot re-encodes differently from the full fetch", epoch)
		}
		dT := transcript(t, deltaRep.Handler(), dSnap)
		fT := transcript(t, fullRep.Handler(), fSnap)
		if dT != fT {
			t.Fatalf("epoch %d transcripts diverge:\n%s\nvs\n%s", epoch, dT, fT)
		}
		tSum := sha256.Sum256([]byte(dT))
		fmt.Fprintf(&golden, "epoch %d digest %s transcript sha256:%s\n",
			epoch, dSnap.Digest(), hex.EncodeToString(tSum[:]))
	}
	// Every upgrade after the first came in as a delta.
	if st := deltaRep.Status(); st.DeltaSyncs != 3 || st.DeltaFallbacks != 0 || st.Fetches != 1 {
		t.Fatalf("delta replica counters %+v, want 3 delta syncs over 1 full fetch", st)
	}
	if st := fullRep.Status(); st.DeltaSyncs != 0 || st.Fetches != 4 {
		t.Fatalf("full replica counters %+v, want 4 full fetches", st)
	}

	goldenPath := filepath.Join("testdata", "golden_delta_churn.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if golden.String() != string(want) {
		t.Fatalf("delta churn golden drifted:\n--- got ---\n%s--- want ---\n%s", golden.String(), want)
	}
}

// TestChaosDeltaCorruptionFallsBack damages every delta response a
// different way per epoch — bit flip, truncation, connection drop —
// and proves each sync falls back to the full snapshot with no wrong
// answers served at any point.
func TestChaosDeltaCorruptionFallsBack(t *testing.T) {
	faults := map[uint64]faultinject.Fault{
		2: {FlipBit: 8 * 300},
		3: {TruncateAt: 120, FlipBit: -1},
		4: {Drop: true, FlipBit: -1},
	}
	var epoch atomic.Uint64
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if strings.HasPrefix(req.URL.Path, "/v1/replication/delta/") {
			if f, ok := faults[epoch.Load()]; ok {
				return f
			}
		}
		return faultinject.Clean
	}
	pub := NewPublisher()
	client, tr := localClient(fleetMux{"builder": pub.Handler()}, decide)
	rep := New(Config{BuilderURL: "http://builder", Client: client})

	snap := makeSnapshot(t, 42, 35, 9)
	for e := uint64(1); e <= 4; e++ {
		epoch.Store(e)
		if e > 1 {
			snap = churn(t, snap, int(e))
		}
		if _, err := pub.Publish(snap); err != nil {
			t.Fatal(err)
		}
		if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
			t.Fatalf("epoch %d: swapped=%v err=%v", e, swapped, err)
		}
		// The invariant under fire: whatever is serving is exactly the
		// published snapshot, byte for byte.
		if got := rep.Cluster().Snapshot().Digest(); got != snap.Digest() {
			t.Fatalf("epoch %d: serving digest %s, published %s", e, got, snap.Digest())
		}
		ip := snap.ExactIPs()[2]
		want := geoserve.NewEngine(snap).Lookup(0, ip)
		if got := rep.Cluster().Lookup(0, ip); got != want {
			t.Fatalf("epoch %d answer diverged: %+v vs %+v", e, got, want)
		}
		if rep.Status().Epoch != e {
			t.Fatalf("replica at epoch %d after publishing %d", rep.Status().Epoch, e)
		}
	}
	st := rep.Status()
	if st.DeltaFallbacks != 3 || st.DeltaSyncs != 0 {
		t.Fatalf("counters %+v, want every delta attempt to fall back", st)
	}
	if st.Fetches != 4 {
		t.Fatalf("%d full fetches, want 4 (one per epoch)", st.Fetches)
	}
	if c := tr.Counters(); c.Flips == 0 || c.Truncations == 0 || c.Drops == 0 {
		t.Fatalf("fault mix not exercised: %+v", c)
	}
}

// TestChaosSlowReplicaRoutedAround wedges one replica mid-response —
// it answers health probes but stalls every query past the router's
// deadline — and proves the router routes around it: every answer
// arrives, correct and whole, and the wedged member's breaker opens.
func TestChaosSlowReplicaRoutedAround(t *testing.T) {
	snap := makeSnapshot(t, 43, 30, 8)
	var wedged atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if wedged.Load() && req.URL.Host == "rep1" && req.URL.Path != "/healthz" {
			return faultinject.Fault{StallAt: 20, StallPause: time.Hour, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.client, f.tr = localClient(mux, decide)
	for i := 0; i < 3; i++ {
		rep := New(Config{BuilderURL: "http://builder", Client: f.client})
		f.replicas = append(f.replicas, rep)
		mux[fmt.Sprintf("rep%d", i)] = rep.Handler()
	}
	f.router = NewRouter(RouterConfig{
		Replicas:         []string{repURL(0), repURL(1), repURL(2)},
		Client:           f.client,
		FailThreshold:    1 << 20, // probes stay green; only the breaker can act
		RequestTimeout:   40 * time.Millisecond,
		BreakerThreshold: 2,
	})
	mux["router"] = f.router.Handler()
	if _, err := f.pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	f.syncAll(t)
	f.router.ProbeOnce(context.Background())

	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)
	_, wantSingle := get(t, dc, "http://direct/v1/locate?ip=10.3.0.1")
	ips := batchIPs(12)
	_, wantBatch := postBatch(t, dc, "http://direct", "alpha", ips)

	wedged.Store(true)
	for i := 0; i < 10; i++ {
		code, body := get(t, f.client, "http://router/v1/locate?ip=10.3.0.1")
		if code != 200 || body != wantSingle {
			t.Fatalf("lookup %d with wedged rep1: %d %q", i, code, body)
		}
	}
	resp, body := postBatch(t, f.client, "http://router", "alpha", ips)
	if resp.StatusCode != 200 || body != wantBatch {
		t.Fatalf("batch with wedged rep1: %d %q", resp.StatusCode, body)
	}
	st := f.router.Status()
	if st.Sheds != 0 {
		t.Fatalf("router shed with two healthy replicas: %+v", st)
	}
	for _, m := range st.Replicas {
		if m.URL != repURL(1) {
			continue
		}
		if m.BreakerState == "closed" && m.BreakerTrips == 0 {
			t.Fatalf("wedged rep1 never tripped its breaker: %+v", m)
		}
		if !m.Healthy {
			t.Fatalf("rep1 ejected (%+v) — the probes were supposed to stay green", m)
		}
	}
	// Breaker recovery after a wedge clears is pinned separately in
	// TestRouterBreakerOpensAndRecovers.
}

// TestChaosRollingDrainZeroLoss drains, restarts and readmits every
// replica in turn while traffic flows. No request may fail or return a
// wrong answer at any point in the roll: a draining replica keeps
// answering what it already has, the router steers new work away after
// one probe, and the restarted process rejoins at the served epoch.
func TestChaosRollingDrainZeroLoss(t *testing.T) {
	snap := makeSnapshot(t, 44, 30, 8)
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.client, f.tr = localClient(mux, nil)
	for i := 0; i < 3; i++ {
		rep := New(Config{BuilderURL: "http://builder", Client: f.client})
		f.replicas = append(f.replicas, rep)
		mux[fmt.Sprintf("rep%d", i)] = rep.Handler()
	}
	f.router = NewRouter(RouterConfig{
		Replicas:      []string{repURL(0), repURL(1), repURL(2)},
		Client:        f.client,
		FailThreshold: 1,
	})
	mux["router"] = f.router.Handler()
	if _, err := f.pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	f.syncAll(t)
	f.router.ProbeOnce(context.Background())

	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)
	_, wantSingle := get(t, dc, "http://direct/v1/locate?ip=10.6.0.77")
	ips := batchIPs(15)
	_, wantBatch := postBatch(t, dc, "http://direct", "beta", ips)

	serveSome := func(stage string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			code, body := get(t, f.client, "http://router/v1/locate?ip=10.6.0.77")
			if code != 200 || body != wantSingle {
				t.Fatalf("%s lookup %d: %d %q", stage, i, code, body)
			}
		}
		resp, body := postBatch(t, f.client, "http://router", "beta", ips)
		if resp.StatusCode != 200 || body != wantBatch {
			t.Fatalf("%s batch: %d %q", stage, resp.StatusCode, body)
		}
	}

	serveSome("steady state")
	for i := 0; i < 3; i++ {
		// Drain: the replica fails its probe but answers racing queries.
		f.replicas[i].Drain()
		serveSome(fmt.Sprintf("rep%d draining, router unaware", i))
		f.router.ProbeOnce(context.Background())
		serveSome(fmt.Sprintf("rep%d drained out", i))
		if n := f.replicas[i].Status().InFlight; n != 0 {
			t.Fatalf("rep%d still has %d in flight; drain would not complete", i, n)
		}
		// Restart: a fresh process takes over the same address and
		// syncs before the router readmits it.
		rep := New(Config{BuilderURL: "http://builder", Client: f.client})
		if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
			t.Fatalf("restarted rep%d sync: swapped=%v err=%v", i, swapped, err)
		}
		f.replicas[i] = rep
		mux[fmt.Sprintf("rep%d", i)] = rep.Handler()
		f.router.ProbeOnce(context.Background())
		serveSome(fmt.Sprintf("rep%d restarted", i))
	}
	st := f.router.Status()
	if st.Sheds != 0 {
		t.Fatalf("rolling drain shed traffic: %+v", st)
	}
	if st.HealthyReplicas != 3 || st.Epoch != 1 {
		t.Fatalf("fleet did not fully return: %+v", st)
	}
	for _, m := range st.Replicas {
		if m.Ejections != 1 || m.Readmissions != 1 {
			t.Fatalf("member %s lifecycle %+v, want one ejection and one readmission", m.URL, m)
		}
	}
}
