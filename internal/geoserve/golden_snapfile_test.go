package geoserve_test

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve/replica"
	"geonet/internal/geoserve/snapfile"
)

// TestGoldenSnapfileReplication pins the whole replication pipeline
// against the serving golden: Serve → snapfile.WriteFile → Load must
// reproduce the identical content digest, and a replica that fetched
// the snapshot over the replication protocol must serve the exact
// transcript in testdata/golden_serving.txt — byte for byte what a
// directly-compiled engine serves.
func TestGoldenSnapfileReplication(t *testing.T) {
	if *update {
		t.Skip("golden transcript being regenerated by TestGoldenServing")
	}
	p, snap := fixture(t)

	// Serialize → load round-trips the digest exactly.
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := snapfile.WriteFile(path, snap, 7); err != nil {
		t.Fatal(err)
	}
	loaded, info, err := snapfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != snap.Digest() {
		t.Fatalf("digest drifted through the file format: %s != %s", loaded.Digest(), snap.Digest())
	}
	if info.Epoch != 7 || info.Digest != snap.Digest() {
		t.Fatalf("file info %+v", info)
	}

	// A replica that fetched the snapshot over the wire serves the
	// golden transcript byte for byte.
	pub := replica.NewPublisher()
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: faultinject.Local{Handler: pub.Handler()}}
	rep := replica.New(replica.Config{BuilderURL: "http://builder", Client: client})
	if swapped, err := rep.SyncOnce(context.Background()); err != nil || !swapped {
		t.Fatalf("sync: swapped=%v err=%v", swapped, err)
	}

	got := goldenTranscript(rep.Cluster().Snapshot(), rep.Handler(), p)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_serving.txt"))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenServing with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("replica transcript drifted from the serving golden.\ngot:\n%s", got)
	}
}
