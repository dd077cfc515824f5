package geoserve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
)

// wireProbeSet derives the golden probe addresses from the pipeline:
// interface hits, generic prefix-level hosts, and a guaranteed miss —
// the same spread goldenTranscript uses for the JSON path.
func wireProbeSet(snap *geoserve.Snapshot, p *core.Pipeline) []uint32 {
	ips := publicIfaceIPs(p)
	probes := []uint32{ips[0], ips[1], ips[len(ips)/2], ips[len(ips)-1]}
	prefixes := snap.Prefixes()
	for _, base := range []uint32{prefixes[0], prefixes[len(prefixes)/2]} {
		for off := uint32(255); ; off-- {
			if _, taken := p.Internet.ByIP[base+off]; !taken {
				probes = append(probes, base+off)
				break
			}
			if off == 0 {
				break
			}
		}
	}
	return append(probes, 0xF0000001) // 240.0.0.1: class E never allocates
}

func postWire(tb testing.TB, h http.Handler, mapper uint16, ips []uint32) *httptest.ResponseRecorder {
	tb.Helper()
	req := geoserve.AppendWireBatchRequest(nil, mapper, ips)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin", bytes.NewReader(req)))
	return w
}

// goldenWireTranscript hex-dumps every /v1/locate/bin response byte
// for the probe set under every mapper, so any drift in the wire
// format — header layout, record encoding, epoch tag derivation —
// fails the comparison.
func goldenWireTranscript(tb testing.TB, snap *geoserve.Snapshot, h http.Handler, probes []uint32) string {
	tb.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "digest %s\n", snap.Digest())
	for m := range snap.Mappers() {
		w := postWire(tb, h, uint16(m), probes)
		if w.Code != http.StatusOK {
			tb.Fatalf("bin mapper %d: status %d: %s", m, w.Code, w.Body.String())
		}
		fmt.Fprintf(&b, "POST /v1/locate/bin mapper=%d -> %d\n%x\n", m, w.Code, w.Body.Bytes())
	}
	return b.String()
}

// TestGoldenWire pins the binary wire protocol end to end:
//
//  1. the engine's /v1/locate/bin responses byte-for-byte (golden
//     file), including the epoch tag, which must equal the snapshot
//     digest's leading 16 hex digits;
//  2. decoded binary answers marshal to the exact bytes the JSON
//     GET /v1/locate path serves — binary and JSON are the same
//     answers on the wire;
//  3. a sharded cluster answers byte-identically to the engine at
//     several shard counts;
//  4. a hot-swap to an identical rebuild does not move a byte.
//
// Regenerate with
//
//	go test ./internal/geoserve -run TestGoldenWire -update
func TestGoldenWire(t *testing.T) {
	p, snap := fixture(t)
	probes := wireProbeSet(snap, p)
	e := geoserve.NewEngine(snap)
	h := geoserve.NewHandler(e)
	got := goldenWireTranscript(t, snap, h, probes)

	// Binary answers decode to the JSON path's exact bytes.
	for m, name := range snap.Mappers() {
		w := postWire(t, h, uint16(m), probes)
		mapper, tag, answers, err := geoserve.DecodeWireBatch(w.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if int(mapper) != m {
			t.Fatalf("echoed mapper %d, want %d", mapper, m)
		}
		if want := snap.Digest()[:16]; fmt.Sprintf("%016x", tag) != want {
			t.Fatalf("epoch tag %016x is not the digest prefix %s", tag, want)
		}
		for i, ip := range probes {
			jw := httptest.NewRecorder()
			h.ServeHTTP(jw, httptest.NewRequest("GET",
				"/v1/locate?ip="+geoserve.FormatIPv4(ip)+"&mapper="+name, nil))
			if jw.Code != http.StatusOK {
				t.Fatalf("JSON lookup %s: status %d", geoserve.FormatIPv4(ip), jw.Code)
			}
			if bin := geoserve.MarshalAnswerJSON(answers[i], name); !bytes.Equal(bin, jw.Body.Bytes()) {
				t.Fatalf("mapper %s ip %s:\nbinary-decoded %s\nJSON endpoint  %s",
					name, geoserve.FormatIPv4(ip), bin, jw.Body.Bytes())
			}
		}
	}

	// Cluster byte-identity at several shard counts.
	for _, shards := range []int{2, 3, 5} {
		c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if cg := goldenWireTranscript(t, snap, geoserve.NewHandler(c), probes); cg != got {
			t.Fatalf("cluster(%d shards) wire transcript differs from engine's", shards)
		}
	}

	// Hot-swap to an identical rebuild: not a byte moves.
	p2, err := core.Run(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := p2.Serve()
	if err != nil {
		t.Fatal(err)
	}
	e.Swap(snap2)
	if after := goldenWireTranscript(t, snap2, h, probes); after != got {
		t.Fatal("wire transcript changed across hot-swap to an identical rebuild")
	}

	path := filepath.Join("testdata", "golden_wire.txt")
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
		t.Errorf("wire transcript drifted from %s.\nIf intentional, regenerate with -update and review the diff.", path)
	}
}
