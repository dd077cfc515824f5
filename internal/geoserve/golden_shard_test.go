package geoserve_test

import (
	"crypto/sha256"
	"encoding/hex"
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

// invarianceProbes is the deterministic address sweep the
// shard-invariance digest runs over: every exact interface address,
// three offsets in every allocated /24 (base, a mid host, the top
// host), and misses below, between and above the index.
func invarianceProbes(snap *geoserve.Snapshot) []uint32 {
	prefixes := snap.Prefixes()
	probes := snap.ExactIPs()
	for _, base := range prefixes {
		probes = append(probes, base, base+127, base+255)
	}
	probes = append(probes, 0, 1, prefixes[0]-1, prefixes[len(prefixes)-1]+256,
		0xF0000001, 0xFFFFFFFF)
	return probes
}

// answersDigest hashes every answer the lookup function gives over the
// probe sweep under every mapper, in a fixed serialisation — the
// "digest of all answers" the shard-count invariance is pinned by.
func answersDigest(snap *geoserve.Snapshot, lookup func(mapper int, ip uint32) geoserve.Answer) string {
	h := sha256.New()
	probes := invarianceProbes(snap)
	for m := range snap.Mappers() {
		for _, ip := range probes {
			a := lookup(m, ip)
			fmt.Fprintf(h, "%d %d %v %v %.17g %.17g %s %d %.17g\n",
				m, a.IP, a.Found, a.Exact, a.Loc.Lat, a.Loc.Lon, a.Method, a.ASN, a.RadiusMi)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchAnswersDigest is answersDigest through the batch path, in
// fixed-size chunks, so batch serving is pinned to the same
// constant as single lookups. Every answer is also held field for
// field against the reference Snapshot.Lookup.
func batchAnswersDigest(t *testing.T, snap *geoserve.Snapshot, c *geoserve.Cluster) string {
	t.Helper()
	h := sha256.New()
	probes := invarianceProbes(snap)
	out := make([]geoserve.Answer, 1024)
	for m := range snap.Mappers() {
		for lo := 0; lo < len(probes); lo += 1024 {
			chunk := probes[lo:min(lo+1024, len(probes))]
			digest, err := c.LookupBatch(m, chunk, out[:len(chunk)])
			if err != nil {
				t.Fatal(err)
			}
			if digest != snap.Digest() {
				t.Fatalf("batch served digest %s, want %s", digest, snap.Digest())
			}
			for i, ip := range chunk {
				a := out[i]
				if want := snap.Lookup(m, ip); a != want {
					t.Errorf("shards=%d mapper=%d ip=%s: batch answered %+v, Snapshot.Lookup says %+v",
						c.NumShards(), m, geoserve.FormatIPv4(ip), a, want)
				}
				fmt.Fprintf(h, "%d %d %v %v %.17g %.17g %s %d %.17g\n",
					m, ip, a.Found, a.Exact, a.Loc.Lat, a.Loc.Lon, a.Method, a.ASN, a.RadiusMi)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clusterTranscript renders a fixed request set through a handler:
// single locates under both mappers (hits, generics, misses, an
// unknown-mapper 400), batches (default and explicit
// mapper, plus a bad-address 400), an AS footprint, healthz, and the
// /v1/prefixes body by hash. Every transcripted byte must be identical
// for any shard count.
func clusterTranscript(snap *geoserve.Snapshot, h http.Handler, p *core.Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digest %s\n", snap.Digest())

	ips := publicIfaceIPs(p)
	var singles []string
	for _, ip := range []uint32{ips[0], ips[len(ips)/3], ips[2*len(ips)/3], ips[len(ips)-1]} {
		singles = append(singles, geoserve.FormatIPv4(ip))
	}
	prefixes := snap.Prefixes()
	for _, base := range []uint32{prefixes[0], prefixes[len(prefixes)/2]} {
		for off := uint32(255); ; off-- {
			if _, taken := p.Internet.ByIP[base+off]; !taken {
				singles = append(singles, geoserve.FormatIPv4(base+off))
				break
			}
			if off == 0 {
				break
			}
		}
	}
	singles = append(singles, "240.0.0.1")

	get := func(target string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		fmt.Fprintf(&b, "GET %s -> %d\n%s", target, w.Code, w.Body.String())
	}
	post := func(target, body string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", target, strings.NewReader(body)))
		fmt.Fprintf(&b, "POST %s %s -> %d\n%s", target, body, w.Code, w.Body.String())
	}

	for _, mapper := range snap.Mappers() {
		for _, probe := range singles {
			get("/v1/locate?ip=" + probe + "&mapper=" + mapper)
		}
	}
	get("/v1/locate?ip=" + singles[0] + "&mapper=nope")

	// A batch spanning the whole index (and so, sharded, every shard):
	// 48 probes evenly sampled from the invariance sweep.
	sweep := invarianceProbes(snap)
	var batch []string
	for i := 0; i < 48; i++ {
		batch = append(batch, `"`+geoserve.FormatIPv4(sweep[i*len(sweep)/48])+`"`)
	}
	post("/v1/locate/batch", `{"ips":[`+strings.Join(batch, ",")+`]}`)
	post("/v1/locate/batch", `{"mapper":"edgescape","ips":[`+strings.Join(batch[:8], ",")+`]}`)
	post("/v1/locate/batch", `{"ips":["1.2.3.999"]}`)

	if a := snap.Lookup(0, ips[0]); a.ASN != 0 {
		get(fmt.Sprintf("/v1/as/%d/footprint", a.ASN))
	}
	get("/healthz")

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/prefixes", nil))
	fmt.Fprintf(&b, "GET /v1/prefixes -> %d sha256:%x (%d bytes)\n",
		w.Code, sha256.Sum256(w.Body.Bytes()), w.Body.Len())
	return b.String()
}

// TestGoldenShardInvariance pins the headline invariant: for shard
// counts {1, 2, 3, 8} every answer (single-lookup and batch paths
// both) equals the public reference Snapshot.Lookup field
// for field, so the digest of all answers is the reference's, and the
// full HTTP transcript is byte-identical to the 1-shard server's —
// cluster topology, like worker count before it, must never move a
// single byte. Regenerate with
//
//	go test ./internal/geoserve -run TestGoldenShardInvariance -update
func TestGoldenShardInvariance(t *testing.T) {
	p, snap := fixture(t)

	wantDigest := answersDigest(snap, snap.Lookup)
	var wantTranscript string
	probes := invarianceProbes(snap)

	for _, shards := range []int{1, 2, 3, 8} {
		c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for m := range snap.Mappers() {
			for _, ip := range probes {
				if got, want := c.Lookup(m, ip), snap.Lookup(m, ip); got != want {
					t.Errorf("shards=%d mapper=%d ip=%s: answered %+v, Snapshot.Lookup says %+v",
						shards, m, geoserve.FormatIPv4(ip), got, want)
				}
			}
		}
		if got := answersDigest(snap, c.Lookup); got != wantDigest {
			t.Errorf("shards=%d: single-lookup answers digest %s != reference %s", shards, got, wantDigest)
		}
		if got := batchAnswersDigest(t, snap, c); got != wantDigest {
			t.Errorf("shards=%d: batch answers digest %s != reference %s", shards, got, wantDigest)
		}
		got := clusterTranscript(snap, geoserve.NewHandler(c), p)
		if shards == 1 {
			wantTranscript = got
		} else if got != wantTranscript {
			t.Errorf("shards=%d: HTTP transcript differs from the 1-shard server's.\ngot:\n%s\nwant:\n%s",
				shards, got, wantTranscript)
		}
	}

	golden := fmt.Sprintf("answers %s\n%s", wantDigest, wantTranscript)
	path := filepath.Join("testdata", "golden_cluster.txt")
	if *update {
		if err := os.WriteFile(path, []byte(golden), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(golden))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if golden != string(want) {
		t.Errorf("cluster serving golden drifted from %s.\nIf intentional, regenerate with -update and review the diff.\ngot:\n%s", path, golden)
	}
}
