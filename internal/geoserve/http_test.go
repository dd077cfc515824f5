package geoserve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geonet/internal/geoserve"
)

func serveReq(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestHTTPLocate(t *testing.T) {
	p, snap := fixture(t)
	h := geoserve.NewHandler(geoserve.NewEngine(snap))
	ip := publicIfaceIPs(p)[0]

	w := serveReq(h, "GET", "/v1/locate?ip="+geoserve.FormatIPv4(ip), nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		IP     string  `json:"ip"`
		Mapper string  `json:"mapper"`
		Found  bool    `json:"found"`
		Exact  bool    `json:"exact"`
		Lat    float64 `json:"lat"`
		Lon    float64 `json:"lon"`
		Method string  `json:"method"`
		ASN    int     `json:"asn"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.IP != geoserve.FormatIPv4(ip) || resp.Mapper != "ixmapper" || !resp.Exact {
		t.Fatalf("bad response %+v", resp)
	}
	want := snap.Lookup(0, ip)
	if resp.Found != want.Found || resp.Method != want.Method || resp.ASN != want.ASN {
		t.Fatalf("response %+v != snapshot answer %+v", resp, want)
	}

	// Explicit mapper selection.
	w = serveReq(h, "GET", "/v1/locate?ip="+geoserve.FormatIPv4(ip)+"&mapper=edgescape", nil)
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"mapper":"edgescape"`) {
		t.Fatalf("edgescape select failed: %d %s", w.Code, w.Body)
	}

	// Errors.
	if w = serveReq(h, "GET", "/v1/locate?ip=not-an-ip", nil); w.Code != 400 {
		t.Fatalf("bad ip: status %d", w.Code)
	}
	if w = serveReq(h, "GET", "/v1/locate", nil); w.Code != 400 {
		t.Fatalf("missing ip: status %d", w.Code)
	}
	if w = serveReq(h, "GET", "/v1/locate?ip=1.2.3.4&mapper=nope", nil); w.Code != 400 {
		t.Fatalf("unknown mapper: status %d", w.Code)
	}
}

func TestHTTPLocateBatch(t *testing.T) {
	p, snap := fixture(t)
	h := geoserve.NewHandler(geoserve.NewEngine(snap))
	ips := publicIfaceIPs(p)

	var strs []string
	for _, ip := range ips[:10] {
		strs = append(strs, geoserve.FormatIPv4(ip))
	}
	body, _ := json.Marshal(map[string]any{"mapper": "edgescape", "ips": strs})
	w := serveReq(h, "POST", "/v1/locate/batch", body)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Mapper  string `json:"mapper"`
		Results []struct {
			IP    string `json:"ip"`
			Found bool   `json:"found"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mapper != "edgescape" || len(resp.Results) != 10 {
		t.Fatalf("bad batch response %+v", resp)
	}
	for i, r := range resp.Results {
		if r.IP != strs[i] {
			t.Fatalf("result %d for %q, want %q", i, r.IP, strs[i])
		}
	}

	// Over-limit and malformed batches.
	big := make([]string, geoserve.MaxBatch+1)
	for i := range big {
		big[i] = "1.2.3.4"
	}
	body, _ = json.Marshal(map[string]any{"ips": big})
	if w = serveReq(h, "POST", "/v1/locate/batch", body); w.Code != 400 {
		t.Fatalf("oversized batch: status %d", w.Code)
	}
	if w = serveReq(h, "POST", "/v1/locate/batch", []byte(`{"ips":[]}`)); w.Code != 400 {
		t.Fatalf("empty batch: status %d", w.Code)
	}
	if w = serveReq(h, "POST", "/v1/locate/batch", []byte(`{`)); w.Code != 400 {
		t.Fatalf("malformed body: status %d", w.Code)
	}
	if w = serveReq(h, "POST", "/v1/locate/batch", []byte(`{"ips":["999.1.1.1"]}`)); w.Code != 400 {
		t.Fatalf("bad batch ip: status %d", w.Code)
	}

	// Boundary hardening: a body over the byte cap answers 413 instead
	// of being slurped, and bytes after the batch object answer 400
	// instead of being silently ignored.
	huge := append([]byte(`{"ips":["1.2.3.4"],"pad":"`), bytes.Repeat([]byte{'x'}, 1<<20)...)
	huge = append(huge, `"}`...)
	if w = serveReq(h, "POST", "/v1/locate/batch", huge); w.Code != 413 {
		t.Fatalf("over-cap body: status %d, want 413", w.Code)
	}
	for _, trailer := range []string{`{"ips":["1.2.3.4"]}{"ips":["5.6.7.8"]}`, `{"ips":["1.2.3.4"]}garbage`} {
		if w = serveReq(h, "POST", "/v1/locate/batch", []byte(trailer)); w.Code != 400 {
			t.Fatalf("trailing data %q: status %d, want 400", trailer, w.Code)
		}
	}
	// Trailing whitespace stays legal.
	if w = serveReq(h, "POST", "/v1/locate/batch", []byte(`{"ips":["1.2.3.4"]}`+"\n  \n")); w.Code != 200 {
		t.Fatalf("trailing whitespace: status %d, want 200: %s", w.Code, w.Body)
	}
}

func TestHTTPFootprint(t *testing.T) {
	p, snap := fixture(t)
	h := geoserve.NewHandler(geoserve.NewEngine(snap))

	// Find an AS with a footprint under some mapper.
	asn := 0
	for _, ip := range publicIfaceIPs(p) {
		a := snap.Lookup(0, ip)
		if a.ASN != 0 {
			if _, ok := snap.Footprint(0, a.ASN); ok {
				asn = a.ASN
				break
			}
		}
	}
	if asn == 0 {
		t.Fatal("no footprinted AS found")
	}
	w := serveReq(h, "GET", fmt.Sprintf("/v1/as/%d/footprint", asn), nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		ASN     int `json:"asn"`
		Mappers map[string]struct {
			Interfaces int     `json:"interfaces"`
			RadiusMi   float64 `json:"radius_mi"`
		} `json:"mappers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ASN != asn || len(resp.Mappers) == 0 {
		t.Fatalf("bad footprint response %+v", resp)
	}
	fp, _ := snap.Footprint(0, asn)
	if got := resp.Mappers["ixmapper"]; got.Interfaces != fp.Interfaces || got.RadiusMi != fp.RadiusMi {
		t.Fatalf("ixmapper footprint %+v != snapshot %+v", got, fp)
	}

	if w = serveReq(h, "GET", "/v1/as/999999999/footprint", nil); w.Code != 404 {
		t.Fatalf("unknown AS: status %d", w.Code)
	}
	if w = serveReq(h, "GET", "/v1/as/zero/footprint", nil); w.Code != 400 {
		t.Fatalf("bad AS: status %d", w.Code)
	}
}

func TestHTTPHealthAndStatus(t *testing.T) {
	p, snap := fixture(t)
	e := geoserve.NewEngine(snap)
	h := geoserve.NewHandler(e)

	w := serveReq(h, "GET", "/healthz", nil)
	if w.Code != 200 || !strings.Contains(w.Body.String(), snap.Digest()) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}

	// Drive some traffic, then read statusz.
	ips := publicIfaceIPs(p)
	for _, ip := range ips[:50] {
		e.Lookup(0, ip)
	}
	e.Lookup(0, 0xF0000001) // miss
	w = serveReq(h, "GET", "/statusz", nil)
	if w.Code != 200 {
		t.Fatalf("statusz: %d", w.Code)
	}
	var st geoserve.Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Lookups != 51 {
		t.Fatalf("lookups = %d, want 51", st.Lookups)
	}
	var attributed uint64
	for _, counts := range st.Methods {
		for _, n := range counts {
			attributed += n
		}
	}
	if attributed != 51 {
		t.Fatalf("method counts sum to %d, want 51", attributed)
	}
	if st.Snapshot.Digest != snap.Digest() || st.Snapshot.Prefixes != snap.NumPrefixes() {
		t.Fatalf("statusz snapshot info mismatch: %+v", st.Snapshot)
	}
	if st.LatencyP50Ns <= 0 || st.LatencyP99Ns < st.LatencyP50Ns {
		t.Fatalf("implausible latency quantiles: p50=%d p99=%d", st.LatencyP50Ns, st.LatencyP99Ns)
	}
	// The unsharded server is the 1-shard cluster: /statusz keeps every
	// key the engine-shaped status had and gains the cluster's, with
	// one shard owning the whole address space and index.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"uptime_seconds", "lookups", "qps_window", "qps_lifetime",
		"latency_p50_ns", "latency_p90_ns", "latency_p99_ns", "methods", "snapshot"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("statusz lost key %q", k)
		}
	}
	if st.Shards != 1 || len(st.ShardStats) != 1 {
		t.Fatalf("statusz shards = %d/%d, want 1/1", st.Shards, len(st.ShardStats))
	}
	if ss := st.ShardStats[0]; ss.RangeStart != "0.0.0.0" || ss.RangeEnd != "255.255.255.255" ||
		ss.Prefixes != snap.NumPrefixes() || ss.ExactIPs != snap.NumExactIPs() || ss.Lookups != 51 {
		t.Fatalf("the one shard does not own everything: %+v", ss)
	}
}

func TestHTTPPrefixes(t *testing.T) {
	_, snap := fixture(t)
	h := geoserve.NewHandler(geoserve.NewEngine(snap))
	w := serveReq(h, "GET", "/v1/prefixes", nil)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var resp struct {
		Count    int      `json:"count"`
		Prefixes []string `json:"prefixes"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != snap.NumPrefixes() || len(resp.Prefixes) != resp.Count {
		t.Fatalf("prefix count %d, want %d", resp.Count, snap.NumPrefixes())
	}
	if !strings.HasSuffix(resp.Prefixes[0], "/24") {
		t.Fatalf("bad prefix form %q", resp.Prefixes[0])
	}
}
