package geoserve_test

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
)

var update = flag.Bool("update", false, "rewrite the golden serving transcript")

// goldenTranscript renders a fixed probe set through the full HTTP
// stack: every response byte lands in the transcript, so any drift in
// snapshot content, answer semantics or wire format fails the
// comparison.
func goldenTranscript(snap *geoserve.Snapshot, h http.Handler, p *core.Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digest %s\n", snap.Digest())

	ips := publicIfaceIPs(p)
	var probes []string
	for _, ip := range []uint32{ips[0], ips[1], ips[len(ips)/2], ips[len(ips)-1]} {
		probes = append(probes, geoserve.FormatIPv4(ip))
	}
	// Two prefix-level (generic host) addresses and one guaranteed
	// miss (class E is never allocated).
	prefixes := snap.Prefixes()
	for _, base := range []uint32{prefixes[0], prefixes[len(prefixes)/2]} {
		for off := uint32(255); ; off-- {
			if _, taken := p.Internet.ByIP[base+off]; !taken {
				probes = append(probes, geoserve.FormatIPv4(base+off))
				break
			}
			if off == 0 {
				break
			}
		}
	}
	probes = append(probes, "240.0.0.1")

	for _, mapper := range snap.Mappers() {
		for _, probe := range probes {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET",
				"/v1/locate?ip="+probe+"&mapper="+mapper, nil))
			fmt.Fprintf(&b, "GET /v1/locate?ip=%s&mapper=%s -> %d\n%s", probe, mapper, w.Code, w.Body.String())
		}
	}

	// One footprint body: the origin AS of the first probe.
	if a := snap.Lookup(0, ips[0]); a.ASN != 0 {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET",
			fmt.Sprintf("/v1/as/%d/footprint", a.ASN), nil))
		fmt.Fprintf(&b, "GET /v1/as/%d/footprint -> %d\n%s", a.ASN, w.Code, w.Body.String())
	}
	return b.String()
}

// TestGoldenServing pins the snapshot digest and a fixed set of lookup
// responses byte-for-byte: across GOMAXPROCS settings (compile and
// pipeline parallelism must not move a single byte) and across a
// hot-swap to an identical rebuild. Regenerate with
//
//	go test ./internal/geoserve -run TestGoldenServing -update
func TestGoldenServing(t *testing.T) {
	p, snap1 := fixture(t) // TestConfig: seed 1, scale 0.02, default GOMAXPROCS

	// An independent pipeline run and compile at a different GOMAXPROCS
	// must produce the identical snapshot.
	prev := runtime.GOMAXPROCS(3)
	p3, err := core.Run(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap3, err := p3.Serve()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if snap3.Digest() != snap1.Digest() {
		t.Fatalf("digest drifts across GOMAXPROCS: %s != %s", snap3.Digest(), snap1.Digest())
	}

	e := geoserve.NewEngine(snap1)
	h := geoserve.NewHandler(e)
	got := goldenTranscript(snap1, h, p)

	// Hot-swap to the identical rebuild: the transcript must not move
	// a byte.
	e.Swap(snap3)
	afterSwap := goldenTranscript(snap3, h, p)
	if afterSwap != got {
		t.Fatal("transcript changed across hot-swap to an identical rebuild")
	}

	path := filepath.Join("testdata", "golden_serving.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("serving transcript drifted from %s.\nIf intentional, regenerate with -update and review the diff.\ngot:\n%s", path, got)
	}
}
