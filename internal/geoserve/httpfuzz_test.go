package geoserve_test

// Fuzzing the geoserve HTTP boundary: arbitrary query parameters and
// batch bodies must never panic the handlers, malformed input must
// always answer 4xx with a JSON error body, and — the differential
// twist — the unsharded engine and a sharded cluster must answer every
// input, valid or hostile, with byte-identical status and body. Seed
// corpora live under testdata/fuzz.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"geonet/internal/geoserve"
)

var (
	fuzzOnce    sync.Once
	fuzzEngine  http.Handler
	fuzzCluster http.Handler
)

// fuzzHandlers builds one engine handler and one 3-shard cluster
// handler over the shared fixture snapshot.
func fuzzHandlers(tb testing.TB) (engine, cluster http.Handler) {
	tb.Helper()
	_, snap := fixture(tb)
	fuzzOnce.Do(func() {
		fuzzEngine = geoserve.NewHandler(geoserve.NewEngine(snap))
		c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 3})
		if err != nil {
			panic(err)
		}
		fuzzCluster = geoserve.NewHandler(c)
	})
	return fuzzEngine, fuzzCluster
}

// checkBoundary serves one request against both handlers and asserts
// the shared contract: status is 200 or 4xx (never 5xx), every
// non-200 body is a JSON object with a non-empty "error", every 200
// body is valid JSON, and the two serving modes agree byte-for-byte.
func checkBoundary(t *testing.T, mkReq func() *http.Request) {
	t.Helper()
	eng, clu := fuzzHandlers(t)
	we := httptest.NewRecorder()
	eng.ServeHTTP(we, mkReq())
	wc := httptest.NewRecorder()
	clu.ServeHTTP(wc, mkReq())

	if we.Code != wc.Code || !bytes.Equal(we.Body.Bytes(), wc.Body.Bytes()) {
		t.Fatalf("engine and cluster disagree: %d %q vs %d %q",
			we.Code, we.Body, wc.Code, wc.Body)
	}
	if we.Code != http.StatusOK && (we.Code < 400 || we.Code >= 500) {
		t.Fatalf("status %d, want 200 or 4xx: %q", we.Code, we.Body)
	}
	if we.Code != http.StatusOK {
		var resp struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(we.Body.Bytes(), &resp); err != nil || resp.Error == "" {
			t.Fatalf("%d body is not a JSON error: %q (%v)", we.Code, we.Body, err)
		}
		return
	}
	var any json.RawMessage
	if err := json.Unmarshal(we.Body.Bytes(), &any); err != nil {
		t.Fatalf("200 body is not JSON: %q (%v)", we.Body, err)
	}
}

func FuzzLocateQuery(f *testing.F) {
	f.Add("1.2.3.4", "")
	f.Add("4.0.27.16", "ixmapper")
	f.Add("240.0.0.1", "edgescape")
	f.Add("", "")
	f.Add("999.999.999.999", "zzz")
	f.Add("1.2.3.4.5", "ixmapper")
	f.Add("01112.1.1.1", "")
	f.Add("1.2.3.4 ", "IXMAPPER")
	f.Add("\x00\xff", "mapper&ip=1.2.3.4")
	f.Fuzz(func(t *testing.T, ipStr, mapper string) {
		q := url.Values{"ip": {ipStr}, "mapper": {mapper}}.Encode()
		checkBoundary(t, func() *http.Request {
			return httptest.NewRequest("GET", "/v1/locate?"+q, nil)
		})
	})
}

func FuzzBatchBody(f *testing.F) {
	f.Add([]byte(`{"ips":["1.2.3.4","4.0.27.16"]}`))
	f.Add([]byte(`{"mapper":"edgescape","ips":["240.0.0.1"]}`))
	f.Add([]byte(`{"mapper":"zzz","ips":["1.2.3.4"]}`))
	f.Add([]byte(`{"ips":[]}`))
	f.Add([]byte(`{"ips":["999.1.1.1"]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"ips":[42]}`))
	f.Add([]byte(`{"ips":"1.2.3.4"}`))
	f.Add([]byte("\x00"))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBoundary(t, func() *http.Request {
			return httptest.NewRequest("POST", "/v1/locate/batch", bytes.NewReader(body))
		})
	})
}
