package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

func TestReplicaSyncAndServe(t *testing.T) {
	snap1 := makeSnapshot(t, 1, 30, 8)
	pub := NewPublisher()
	if _, err := pub.Publish(snap1); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})

	swapped, err := rep.SyncOnce(context.Background())
	if err != nil || !swapped {
		t.Fatalf("first sync: swapped=%v err=%v", swapped, err)
	}
	if rep.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", rep.Epoch())
	}

	// The replica's API answers are byte-identical to a direct engine
	// over the same snapshot.
	direct := geoserve.NewHandler(geoserve.NewEngine(snap1))
	c2, _ := localClient(fleetMux{"rep": rep.Handler(), "direct": direct}, nil)
	for _, q := range []string{
		"/v1/locate?ip=10.0.0.1",
		"/v1/locate?ip=10.3.0.77&mapper=beta",
		"/v1/locate?ip=99.9.9.9",
		"/v1/prefixes",
		"/v1/as/103/footprint",
	} {
		st1, b1 := get(t, c2, "http://rep"+q)
		st2, b2 := get(t, c2, "http://direct"+q)
		if st1 != st2 || b1 != b2 {
			t.Fatalf("%s diverges: replica (%d) %q vs engine (%d) %q", q, st1, b1, st2, b2)
		}
	}

	// Every answer carries the epoch+digest of the snapshot that
	// produced it.
	resp, err := c2.Get("http://rep/v1/locate?ip=10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e, d := resp.Header.Get("X-Geo-Epoch"), resp.Header.Get("X-Geo-Digest"); e != "1" || d != snap1.Digest() {
		t.Fatalf("headers epoch=%q digest=%q", e, d)
	}

	// Same epoch: sync is a no-op.
	if swapped, err = rep.SyncOnce(context.Background()); err != nil || swapped {
		t.Fatalf("idempotent sync: swapped=%v err=%v", swapped, err)
	}

	// New epoch swaps in.
	snap2 := makeSnapshot(t, 2, 35, 9)
	if _, err := pub.Publish(snap2); err != nil {
		t.Fatal(err)
	}
	if swapped, err = rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("second sync: swapped=%v err=%v", swapped, err)
	}
	st := rep.Status()
	if st.Epoch != 2 || st.Swaps != 2 || st.Digest != snap2.Digest() || st.State != "serving" {
		t.Fatalf("status %+v", st)
	}
}

func TestReplicaServes503BeforeFirstSync(t *testing.T) {
	rep := New(Config{BuilderURL: "http://builder"})
	client, _ := localClient(fleetMux{"rep": rep.Handler()}, nil)
	resp, err := client.Get("http://rep/v1/locate?ip=10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d retry-after %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, body := get(t, client, "http://rep/statusz"); code != 200 || !strings.Contains(body, `"state":"empty"`) {
		t.Fatalf("statusz %d %s", code, body)
	}
	if code, _ := get(t, client, "http://rep/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d, want 503", code)
	}
}

// TestReplicaResumesTruncatedFetch pins the resumable-download path: a
// fetch cut off mid-transfer keeps its bytes, and the next attempt
// finishes the file with a Range request (the resume counter only
// moves on a 206).
func TestReplicaResumesTruncatedFetch(t *testing.T) {
	snap := makeSnapshot(t, 3, 40, 10)
	pub := NewPublisher()
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	// Attempt 0: manifest, clean. Attempt 1: snapshot, truncated after
	// 200 bytes. Attempts 2-3: manifest + resumed snapshot, clean.
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, faultinject.Script(
		faultinject.Clean,
		faultinject.Fault{TruncateAt: 200, FlipBit: -1},
	))
	rep := New(Config{BuilderURL: "http://builder", Client: client})

	swapped, err := rep.SyncOnce(context.Background())
	if swapped || !errors.Is(err, snapfile.ErrTruncated) {
		t.Fatalf("truncated sync: swapped=%v err=%v", swapped, err)
	}
	rep.mu.Lock()
	kept := len(rep.partial)
	rep.mu.Unlock()
	if kept != 200 {
		t.Fatalf("partial holds %d bytes, want 200", kept)
	}

	if swapped, err = rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("resumed sync: swapped=%v err=%v", swapped, err)
	}
	st := rep.Status()
	if st.Resumes != 1 || st.Epoch != 1 || st.FetchFailures != 1 {
		t.Fatalf("status %+v, want one resume into epoch 1", st)
	}
	if rep.Cluster().Snapshot().Digest() != snap.Digest() {
		t.Fatal("resumed snapshot digest mismatch")
	}
}

// TestReplicaVerifyRejectsCorruptFetch pins the safety core: a fetch
// whose bytes are corrupted in flight fails verification and the
// last-good epoch keeps serving untouched.
func TestReplicaVerifyRejectsCorruptFetch(t *testing.T) {
	snap1 := makeSnapshot(t, 4, 30, 8)
	snap2 := makeSnapshot(t, 5, 32, 8)
	// A builder that retains only its current epoch offers no delta,
	// which pins the full-fetch verify arm; the delta path's own
	// corruption handling (fall back, never serve wrong bytes) is
	// covered by TestChaosDeltaCorruptionFallsBack.
	pub := NewPublisher()
	pub.SetRetain(1)
	if _, err := pub.Publish(snap1); err != nil {
		t.Fatal(err)
	}
	// Attempts 0-1: epoch 1 syncs clean. Attempt 3: epoch 2's snapshot
	// arrives with one flipped bit. Attempt 5: clean retry.
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, faultinject.Script(
		faultinject.Clean, faultinject.Clean,
		faultinject.Clean, faultinject.Fault{FlipBit: 8 * 500},
	))
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	if _, err := pub.Publish(snap2); err != nil {
		t.Fatal(err)
	}
	swapped, err := rep.SyncOnce(context.Background())
	if swapped || !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupt sync: swapped=%v err=%v", swapped, err)
	}
	// Last-good epoch still serving.
	if rep.Epoch() != 1 || rep.Cluster().Snapshot().Digest() != snap1.Digest() {
		t.Fatalf("after corrupt fetch: epoch %d", rep.Epoch())
	}
	// A corrupt complete download is discarded, not resumed into.
	rep.mu.Lock()
	kept := len(rep.partial)
	rep.mu.Unlock()
	if kept != 0 {
		t.Fatalf("corrupt download left %d partial bytes", kept)
	}

	if swapped, err = rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("recovery sync: swapped=%v err=%v", swapped, err)
	}
	if rep.Epoch() != 2 || rep.Cluster().Snapshot().Digest() != snap2.Digest() {
		t.Fatalf("recovery landed on epoch %d", rep.Epoch())
	}
}

// TestReplicaRejectsManifestMismatch covers the forged-manifest arm:
// a well-formed file whose identity disagrees with the manifest that
// named it is refused.
func TestReplicaRejectsManifestMismatch(t *testing.T) {
	snap := makeSnapshot(t, 6, 20, 6)
	pub := NewPublisher()
	m, err := pub.Publish(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A man-in-the-middle manifest naming a different digest.
	lying := http.NewServeMux()
	lying.HandleFunc("GET /v1/replication/manifest", func(w http.ResponseWriter, r *http.Request) {
		forged := m
		forged.Digest = strings.Repeat("ab", 32)
		writeJSON(w, forged)
	})
	lying.Handle("/", pub.Handler())
	client, _ := localClient(fleetMux{"builder": lying}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	swapped, err := rep.SyncOnce(context.Background())
	if swapped || !errors.Is(err, ErrVerify) {
		t.Fatalf("mismatched manifest: swapped=%v err=%v", swapped, err)
	}
	if rep.Epoch() != 0 {
		t.Fatalf("epoch %d after rejected sync", rep.Epoch())
	}
}

// TestReplicaSyncHonoursContext proves cancellation halts a fetch
// promptly even when the builder hangs.
func TestReplicaSyncHonoursContext(t *testing.T) {
	client, _ := localClient(fleetMux{"builder": http.NotFoundHandler()}, faultinject.Script(
		faultinject.Fault{Latency: time.Hour, FlipBit: -1},
	))
	rep := New(Config{BuilderURL: "http://builder", Client: client, FetchTimeout: 30 * time.Millisecond})
	start := time.Now()
	_, err := rep.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("sync against a hung builder succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestReplicaStaleEpoch pins the degraded mode: builder unreachable,
// replica keeps serving its last epoch and says stale_epoch.
func TestReplicaStaleEpoch(t *testing.T) {
	snap := makeSnapshot(t, 7, 25, 6)
	pub := NewPublisher()
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client, StaleAfter: time.Minute})
	if _, err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rep.Status(); st.StaleEpoch {
		t.Fatalf("fresh replica reports stale: %+v", st)
	}

	// An hour passes with no builder contact.
	rep.now = func() time.Time { return time.Now().Add(time.Hour) }
	st := rep.Status()
	if st.State != "serving" || !st.StaleEpoch {
		t.Fatalf("status %+v, want serving+stale", st)
	}
	// Still answering, and healthz says so while flagging staleness.
	c2, _ := localClient(fleetMux{"rep": rep.Handler()}, nil)
	code, body := get(t, c2, "http://rep/healthz")
	var hb healthzBody
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if code != 200 || hb.Status != "ok" || !hb.StaleEpoch || hb.Epoch != 1 {
		t.Fatalf("healthz %d %+v", code, hb)
	}
	if code, _ := get(t, c2, "http://rep/v1/locate?ip=10.0.0.1"); code != 200 {
		t.Fatalf("stale replica stopped serving: %d", code)
	}
}

// TestReplicaRun exercises the loop end to end: it picks up a publish,
// swaps, and stops on context cancellation.
func TestReplicaRun(t *testing.T) {
	snap := makeSnapshot(t, 8, 20, 5)
	pub := NewPublisher()
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{
		BuilderURL:   "http://builder",
		Client:       client,
		PollInterval: 2 * time.Millisecond,
		Backoff:      BackoffPolicy{Base: time.Millisecond, Cap: 4 * time.Millisecond},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()

	// The builder has nothing yet; the loop must be retrying, not dead.
	time.Sleep(10 * time.Millisecond)
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rep.Epoch() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("run loop never swapped; status %+v", rep.Status())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop on cancellation")
	}
}

// BenchmarkFetch reads one epoch's file (fetchBlob) and its delta from
// the epoch before (fetchDelta, which also applies it), each body
// served from memory as the publisher wrote it (canned), so -benchmem
// reports what the fetch itself allocates.
func BenchmarkFetch(b *testing.B) {
	rep, m, bodies := fetchFixture(b, makeSnapshot(b, 1, 2000, 2000))
	ctx := context.Background()
	rep.cfg.Client = &http.Client{Transport: bodies}
	b.Run("file", func(b *testing.B) {
		b.SetBytes(int64(len(bodies["/v1/replication/snapshot/2"])))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rep.fetchBlob(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.SetBytes(int64(len(bodies["/v1/replication/delta/1/2"])))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rep.fetchDelta(ctx, rep.cur.Load(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFetchSurvivesHugeSizes: a manifest's size_bytes and a response's
// Content-Length come over the network, so neither may size a buffer
// whole. Told a size far past the body, with the body's length unknown
// or claimed as large, a file fetch fails as truncated, a delta that
// is whole still applies, and no fetch allocates past maxPresize up
// front or panics.
func TestFetchSurvivesHugeSizes(t *testing.T) {
	rep, m, bodies := fetchFixture(t, makeSnapshot(t, 8, 20, 6))
	ctx := context.Background()
	for _, size := range []int64{math.MaxInt64, 1 << 40} {
		for _, length := range []int64{-1, size} {
			huge := m
			huge.SizeBytes = size
			rep.cfg.Client = &http.Client{Transport: claiming{bodies, length}}
			if _, err := rep.fetchBlob(ctx, huge); !errors.Is(err, snapfile.ErrTruncated) {
				t.Errorf("size %d, length %d: file fetch gave %v, want ErrTruncated", size, length, err)
			}
			rep.mu.Lock()
			kept := cap(rep.partial)
			rep.mu.Unlock()
			if kept > maxPresize+1 {
				t.Errorf("size %d, length %d: the partial download holds a %d-byte buffer", size, length, kept)
			}
			if _, err := rep.fetchDelta(ctx, rep.cur.Load(), huge); err != nil {
				t.Errorf("size %d, length %d: delta fetch: %v", size, length, err)
			}
		}
	}
}

// fetchFixture syncs a replica to old at epoch 1, publishes old
// churned as epoch 2, and returns the replica, epoch 2's manifest and
// the bodies of its file and of the delta from epoch 1, as the
// publisher wrote them.
func fetchFixture(tb testing.TB, old *geoserve.Snapshot) (*Replica, Manifest, canned) {
	tb.Helper()
	pub := NewPublisher()
	if _, err := pub.Publish(old); err != nil {
		tb.Fatal(err)
	}
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})
	ctx := context.Background()
	if _, err := rep.SyncOnce(ctx); err != nil {
		tb.Fatal(err)
	}
	if _, err := pub.Publish(churn(tb, old, 1)); err != nil {
		tb.Fatal(err)
	}
	m, err := rep.fetchManifest(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	bodies := canned{}
	for _, path := range []string{"/v1/replication/snapshot/2", "/v1/replication/delta/1/2"} {
		_, body := get(tb, client, "http://builder"+path)
		bodies[path] = []byte(body)
	}
	return rep, m, bodies
}

// canned answers a GET of each path it holds with that body and its
// length, as a server that sets Content-Length does.
type canned map[string][]byte

func (c canned) RoundTrip(req *http.Request) (*http.Response, error) {
	body, ok := c[req.URL.Path]
	if !ok {
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Request: req}, nil
	}
	return &http.Response{StatusCode: http.StatusOK, ContentLength: int64(len(body)),
		Body: io.NopCloser(bytes.NewReader(body)), Request: req}, nil
}

// claiming serves canned's bodies under a Content-Length of its own.
type claiming struct {
	canned
	length int64
}

func (c claiming) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.canned.RoundTrip(req)
	resp.ContentLength = c.length
	return resp, err
}
