package replica

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

// TestPublisherRetentionWindow walks the publisher through more epochs
// than it retains and checks the manifest, the snapshot endpoint, and
// the delta endpoint all agree about which epochs still exist.
func TestPublisherRetentionWindow(t *testing.T) {
	pub := NewPublisher()
	pub.SetRetain(3)
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)

	snaps := map[uint64]string{}
	for i := 1; i <= 5; i++ {
		snap := makeSnapshot(t, int64(i), 20, 6)
		m, err := pub.Publish(snap)
		if err != nil {
			t.Fatal(err)
		}
		snaps[m.Epoch] = snap.Digest()
		lo := uint64(1)
		if m.Epoch > 2 {
			lo = m.Epoch - 2
		}
		var want []uint64
		for e := lo; e <= m.Epoch; e++ {
			want = append(want, e)
		}
		if !reflect.DeepEqual(m.Retained, want) {
			t.Fatalf("after epoch %d: retained %v, want %v", m.Epoch, m.Retained, want)
		}
	}

	for epoch := uint64(1); epoch <= 5; epoch++ {
		status, _ := get(t, client, fmt.Sprintf("http://builder/v1/replication/snapshot/%d", epoch))
		want := http.StatusOK
		if epoch <= 2 {
			want = http.StatusNotFound
		}
		if status != want {
			t.Fatalf("snapshot/%d: status %d, want %d", epoch, status, want)
		}
	}

	// A delta between two retained epochs applies onto the base and
	// lands exactly on the target digest.
	resp, err := client.Get("http://builder/v1/replication/delta/3/5")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delta/3/5: status %d err %v", resp.StatusCode, err)
	}
	base := makeSnapshot(t, 3, 20, 6)
	applied, info, err := snapfile.Apply(base, blob)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Digest() != snaps[5] || info.ToEpoch != 5 {
		t.Fatalf("delta landed on %s epoch %d, want %s epoch 5", applied.Digest(), info.ToEpoch, snaps[5])
	}

	// Everything the window can't serve is a 404: pruned base,
	// reversed range, self-delta, unknown future epoch.
	for _, path := range []string{"1/5", "2/4", "5/3", "4/4", "3/9"} {
		status, _ := get(t, client, "http://builder/v1/replication/delta/"+path)
		if status != http.StatusNotFound {
			t.Fatalf("delta/%s: status %d, want 404", path, status)
		}
	}
	if status, _ := get(t, client, "http://builder/v1/replication/delta/x/5"); status != http.StatusBadRequest {
		t.Fatalf("unparseable delta endpoint: status %d, want 400", status)
	}
}

// TestPublisherDeltaCachePruned checks a cached delta doesn't outlive
// its endpoints: once the base epoch leaves the window the pair 404s
// even though it was served before.
func TestPublisherDeltaCachePruned(t *testing.T) {
	pub := NewPublisher()
	pub.SetRetain(2)
	client, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
	for i := 1; i <= 2; i++ {
		if _, err := pub.Publish(makeSnapshot(t, int64(i), 10, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if status, _ := get(t, client, "http://builder/v1/replication/delta/1/2"); status != http.StatusOK {
		t.Fatalf("delta/1/2 while retained: status %d", status)
	}
	if _, err := pub.Publish(makeSnapshot(t, 3, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if status, _ := get(t, client, "http://builder/v1/replication/delta/1/2"); status != http.StatusNotFound {
		t.Fatalf("delta/1/2 after base pruned: status %d, want 404", status)
	}
	pub.mu.RLock()
	nCached := len(pub.deltas)
	pub.mu.RUnlock()
	if nCached != 0 {
		t.Fatalf("%d cached deltas survived pruning of their endpoints", nCached)
	}
}

// TestPublisherShrinkRetain checks SetRetain prunes immediately when
// the window shrinks below the number of live epochs.
func TestPublisherShrinkRetain(t *testing.T) {
	pub := NewPublisher()
	for i := 1; i <= 4; i++ {
		if _, err := pub.Publish(makeSnapshot(t, int64(i), 8, 4)); err != nil {
			t.Fatal(err)
		}
	}
	pub.SetRetain(1)
	m, ok := pub.Manifest()
	if !ok {
		t.Fatal("manifest vanished")
	}
	if !reflect.DeepEqual(m.Retained, []uint64{4}) {
		t.Fatalf("retained %v after shrink, want [4]", m.Retained)
	}
}

// TestPublisherBuildsOnceOutsideLock pins the publisher's lazy builds:
// Publish encodes nothing; eight concurrent first GETs of one epoch's
// file (half of them ranged) and eight of one delta build each artifact
// exactly once and all get the same bytes; and while those builds are
// held, Manifest still answers — no build runs under the publisher's
// lock. CI runs it under -race.
func TestPublisherBuildsOnceOutsideLock(t *testing.T) {
	pub := NewPublisher()
	s1, s2 := makeSnapshot(t, 1, 20, 6), makeSnapshot(t, 2, 20, 6)
	var (
		mu     sync.Mutex
		builds = map[deltaKey]int{}
		// One slot per request below, so a build a regression starts
		// twice never blocks on announcing itself.
		entered = make(chan struct{}, 16)
		release = make(chan struct{})
	)
	pub.build = func(base, target *geoserve.Snapshot, from, to uint64) ([]byte, error) {
		mu.Lock()
		builds[deltaKey{from, to}]++
		mu.Unlock()
		entered <- struct{}{}
		<-release
		return buildArtifact(base, target, from, to)
	}
	for _, s := range []*geoserve.Snapshot{s1, s2} {
		if _, err := pub.Publish(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(builds) != 0 {
		t.Fatalf("Publish built %v", builds)
	}
	wantFile, err := snapfile.Encode(s2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, err := snapfile.Diff(s1, s2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	h := pub.Handler()
	type got struct {
		path string
		code int
		body []byte
		want []byte
	}
	results := make(chan got, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for _, path := range []string{"/v1/replication/snapshot/2", "/v1/replication/delta/1/2"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest("GET", path, nil)
				want := wantDelta
				if strings.Contains(path, "snapshot") {
					want = wantFile
					if i%2 == 1 {
						req.Header.Set("Range", "bytes=100-")
						want = wantFile[100:]
					}
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				results <- got{path, rec.Code, rec.Body.Bytes(), want}
			}()
		}
	}

	// Both builds start and are held (a build under the lock would stop
	// the other at the lock); the manifest must not wait for either.
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	for range 2 {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the file and delta builds did not both start")
		}
	}
	answered := make(chan bool, 1)
	go func() {
		_, ok := pub.Manifest()
		answered <- ok
	}()
	select {
	case ok := <-answered:
		if !ok {
			t.Fatal("no manifest while builds are held")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Manifest blocked behind a held build")
	}
	close(release)
	wg.Wait()
	close(results)

	for r := range results {
		if r.code != http.StatusOK && r.code != http.StatusPartialContent || !bytes.Equal(r.body, r.want) {
			t.Fatalf("GET %s: status %d, %d bytes; want %d bytes", r.path, r.code, len(r.body), len(r.want))
		}
	}
	if want := map[deltaKey]int{{0, 2}: 1, {1, 2}: 1}; !reflect.DeepEqual(builds, want) {
		t.Fatalf("builds %v, want each artifact built once: %v", builds, want)
	}
}
