package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
)

// fleet is a one-process builder + replicas + router wired over
// in-memory transports.
type fleet struct {
	pub      *Publisher
	replicas []*Replica
	router   *Router
	// client talks to any node; its transport injects decide's faults.
	client *http.Client
	tr     *faultinject.Transport
	// mux is the in-memory network: tests may wrap a node's handler.
	mux fleetMux
}

// repURL names replica i in the fleet mux.
func repURL(i int) string { return fmt.Sprintf("http://rep%d", i) }

// newFleet builds a publisher, n synced replicas and a probed router.
// decide injects faults on every exchange in the fleet, including the
// test's own requests.
func newFleet(tb testing.TB, n int, snap *geoserve.Snapshot, decide faultinject.Decider) *fleet {
	tb.Helper()
	return newFleetWith(tb, n, snap, decide, RouterConfig{FailThreshold: 1})
}

// newFleetWith is newFleet with the router's knobs chosen by the
// caller; Replicas and Client are filled in here.
func newFleetWith(tb testing.TB, n int, snap *geoserve.Snapshot, decide faultinject.Decider, cfg RouterConfig) *fleet {
	tb.Helper()
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.mux = mux
	f.client, f.tr = localClient(mux, decide)
	for i := 0; i < n; i++ {
		rep := New(Config{BuilderURL: "http://builder", Client: f.client})
		f.replicas = append(f.replicas, rep)
		mux[fmt.Sprintf("rep%d", i)] = rep.Handler()
	}
	var urls []string
	for i := range f.replicas {
		urls = append(urls, repURL(i))
	}
	cfg.Replicas, cfg.Client = urls, f.client
	f.router = NewRouter(cfg)
	mux["router"] = f.router.Handler()
	if snap != nil {
		if _, err := f.pub.Publish(snap); err != nil {
			tb.Fatal(err)
		}
		f.syncAll(tb)
		f.router.ProbeOnce(context.Background())
	}
	return f
}

func (f *fleet) syncAll(tb testing.TB) {
	tb.Helper()
	for i, rep := range f.replicas {
		if _, err := rep.SyncOnce(context.Background()); err != nil {
			tb.Fatalf("replica %d sync: %v", i, err)
		}
	}
}

func postBatch(tb testing.TB, client *http.Client, url, mapper string, ips []string) (*http.Response, string) {
	tb.Helper()
	body, _ := json.Marshal(struct {
		Mapper string   `json:"mapper"`
		IPs    []string `json:"ips"`
	}{mapper, ips})
	resp, err := client.Post(url+"/v1/locate/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatalf("POST %s batch: %v", url, err)
	}
	defer resp.Body.Close()
	var sb bytes.Buffer
	sb.ReadFrom(resp.Body)
	return resp, sb.String()
}

// batchIPs picks addresses spanning exact hits, prefix hits and misses.
func batchIPs(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, fmt.Sprintf("10.%d.0.1", i%20))
		case 1:
			out = append(out, fmt.Sprintf("10.%d.0.200", i%20))
		default:
			out = append(out, fmt.Sprintf("99.1.%d.9", i))
		}
	}
	return out
}

func TestRouterShedsWithNoHealthyReplica(t *testing.T) {
	f := newFleet(t, 2, nil, nil) // nothing published, replicas unsynced, members unprobed
	resp, err := f.client.Get("http://router/v1/locate?ip=10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Probing unsynced replicas (healthz 503) must not admit them.
	f.router.ProbeOnce(context.Background())
	if st := f.router.Status(); st.HealthyReplicas != 0 || st.Sheds != 1 {
		t.Fatalf("status %+v", st)
	}
}

// TestRouterMatchesEngineByteForByte pins that routed replies — single
// lookups, batches and every batch rejection — are byte-identical to
// one engine's over the same snapshot.
func TestRouterMatchesEngineByteForByte(t *testing.T) {
	snap := makeSnapshot(t, 11, 40, 10)
	f := newFleet(t, 3, snap, nil)
	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)

	for _, q := range []string{
		"/v1/locate?ip=10.0.0.1",
		"/v1/locate?ip=10.7.0.9&mapper=beta",
		"/v1/locate?ip=1.2.3.4",
		"/v1/locate?ip=not-an-ip",
		"/v1/prefixes",
		"/v1/as/105/footprint",
	} {
		rCode, rBody := get(t, f.client, "http://router"+q)
		dCode, dBody := get(t, dc, "http://direct"+q)
		if rCode != dCode || rBody != dBody {
			t.Fatalf("%s diverges: router (%d) %q vs engine (%d) %q", q, rCode, rBody, dCode, dBody)
		}
	}

	// A batch is answered whole by one replica.
	for _, n := range []int{1, 2, 3, 7, 50} {
		ips := batchIPs(n)
		resp, rBody := postBatch(t, f.client, "http://router", "alpha", ips)
		dResp, dBody := postBatch(t, dc, "http://direct", "alpha", ips)
		if resp.StatusCode != dResp.StatusCode || rBody != dBody {
			t.Fatalf("batch n=%d diverges:\nrouter (%d) %s\nengine (%d) %s", n, resp.StatusCode, rBody, dResp.StatusCode, dBody)
		}
		if e := resp.Header.Get("X-Geo-Epoch"); e != "1" {
			t.Fatalf("batch epoch header %q", e)
		}
	}

	// Error shapes pass through byte-identically too.
	resp, rBody := postBatch(t, f.client, "http://router", "nope", batchIPs(4))
	dResp, dBody := postBatch(t, dc, "http://direct", "nope", batchIPs(4))
	if resp.StatusCode != http.StatusBadRequest || resp.StatusCode != dResp.StatusCode || rBody != dBody {
		t.Fatalf("unknown-mapper batch: router (%d) %q vs engine (%d) %q", resp.StatusCode, rBody, dResp.StatusCode, dBody)
	}
	// The rejections internal/geoserve/http_test.go lists: the replica
	// validates, so the router cannot drift from it.
	huge := `{"ips":["1.2.3.4"],"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, tc := range []struct {
		name, method, body string
		want               int
	}{
		{"malformed", "POST", `{`, 400},
		{"empty", "POST", `{"ips":[]}`, 400},
		{"bad address", "POST", `{"ips":["999.1.1.1"]}`, 400},
		{"trailing object", "POST", `{"ips":["1.2.3.4"]}{"ips":["5.6.7.8"]}`, 400},
		{"trailing garbage", "POST", `{"ips":["1.2.3.4"]}garbage`, 400},
		{"trailing whitespace", "POST", `{"ips":["1.2.3.4"]}` + "\n  \n", 200},
		{"over the body cap", "POST", huge, 413},
		{"wrong method", "GET", "", 405},
	} {
		rCode, rBody := do(t, f.client, tc.method, "http://router/v1/locate/batch", tc.body)
		dCode, dBody := do(t, dc, tc.method, "http://direct/v1/locate/batch", tc.body)
		if rCode != tc.want || rCode != dCode || rBody != dBody {
			t.Errorf("%s batch: router (%d) %q vs engine (%d) %q, want %d", tc.name, rCode, rBody, dCode, dBody, tc.want)
		}
	}
	if st := f.router.Status(); st.Retries != 0 || st.Sheds != 0 {
		t.Fatalf("healthy fleet needed retries: %+v", st)
	}
}

// TestRouterEjectsAndReadmits pins the health lifecycle: a dead
// replica is ejected after FailThreshold failures and readmitted by
// the first healthy probe, with no failed answer either way.
func TestRouterEjectsAndReadmits(t *testing.T) {
	snap := makeSnapshot(t, 12, 30, 8)
	var down atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if down.Load() && req.URL.Host == "rep1" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := newFleet(t, 2, snap, decide)
	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)
	_, want := get(t, dc, "http://direct/v1/locate?ip=10.2.0.1")

	down.Store(true)
	// Every request keeps succeeding with the right answer: the router
	// retries onto rep0 when a forward hits the dead rep1 (ejecting it
	// at FailThreshold=1), after which rep1 is out of the plan.
	for i := 0; i < 8; i++ {
		code, body := get(t, f.client, "http://router/v1/locate?ip=10.2.0.1")
		if code != 200 || body != want {
			t.Fatalf("request %d during outage: %d %q", i, code, body)
		}
	}
	f.router.ProbeOnce(context.Background())
	st := f.router.Status()
	if st.HealthyReplicas != 1 {
		t.Fatalf("status during outage %+v", st)
	}
	var r1 RouterReplica
	for _, m := range st.Replicas {
		if m.URL == repURL(1) {
			r1 = m
		}
	}
	if r1.Healthy || r1.Ejections != 1 {
		t.Fatalf("rep1 row %+v, want ejected once", r1)
	}

	down.Store(false)
	f.router.ProbeOnce(context.Background())
	st = f.router.Status()
	if st.HealthyReplicas != 2 {
		t.Fatalf("status after recovery %+v", st)
	}
	for _, m := range st.Replicas {
		if m.URL == repURL(1) && (!m.Healthy || m.Readmissions != 1) {
			t.Fatalf("rep1 not readmitted: %+v", m)
		}
	}
	for i := 0; i < 4; i++ {
		if code, body := get(t, f.client, "http://router/v1/locate?ip=10.2.0.1"); code != 200 || body != want {
			t.Fatalf("request %d after recovery: %d %q", i, code, body)
		}
	}
}

// TestRouterBatchNeverBlendsEpochs pins batch epoch consistency: when
// part of the fleet has swapped to a new epoch, a batch is answered
// entirely by one epoch — never a mix — even when the router's view is
// stale.
func TestRouterBatchNeverBlendsEpochs(t *testing.T) {
	snap1 := makeSnapshot(t, 13, 30, 8)
	snap2 := makeSnapshot(t, 14, 34, 9)
	f := newFleet(t, 2, snap1, nil)

	// Epoch 2 appears and only replica 1 picks it up; the router still
	// believes both replicas hold epoch 1.
	if _, err := f.pub.Publish(snap2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.replicas[1].SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	ips := batchIPs(12)
	resp, body := postBatch(t, f.client, "http://router", "alpha", ips)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	// The answer must be exactly one engine's output: either all
	// epoch 1 (rep0) or all epoch 2 (rep1), matching its epoch header.
	dc, _ := localClient(fleetMux{
		"e1": geoserve.NewHandler(geoserve.NewEngine(snap1)),
		"e2": geoserve.NewHandler(geoserve.NewEngine(snap2)),
	}, nil)
	_, want1 := postBatch(t, dc, "http://e1", "alpha", ips)
	_, want2 := postBatch(t, dc, "http://e2", "alpha", ips)
	switch epoch := resp.Header.Get("X-Geo-Epoch"); epoch {
	case "1":
		if body != want1 {
			t.Fatalf("epoch-1 batch body diverges:\n%s\nvs\n%s", body, want1)
		}
	case "2":
		if body != want2 {
			t.Fatalf("epoch-2 batch body diverges:\n%s\nvs\n%s", body, want2)
		}
	default:
		t.Fatalf("epoch header %q", epoch)
	}
	if body == want1 && body == want2 {
		t.Fatal("test is vacuous: both snapshots answer identically")
	}

	// After a probe refreshes the view, batches settle on epoch 2 —
	// served solely by the replica that holds it.
	f.router.ProbeOnce(context.Background())
	resp, body = postBatch(t, f.client, "http://router", "alpha", ips)
	if e := resp.Header.Get("X-Geo-Epoch"); e != "2" || body != want2 {
		t.Fatalf("post-probe batch epoch %q", e)
	}
	// And once every replica catches up, both serve epoch 2.
	f.syncAll(t)
	f.router.ProbeOnce(context.Background())
	resp, body = postBatch(t, f.client, "http://router", "alpha", ips)
	if e := resp.Header.Get("X-Geo-Epoch"); e != "2" || body != want2 {
		t.Fatalf("converged batch epoch %q", e)
	}
	if st := f.router.Status(); st.Epoch != 2 || st.HealthyReplicas != 2 {
		t.Fatalf("converged status %+v", st)
	}
}

// TestRouterRetryStepsBackAnEpoch pins the retry's plan under the
// router defaults geoserved runs with (FailThreshold 2, so one failure
// ejects nobody): when the only member at the newest epoch fails, the
// retry goes to a healthy member one epoch behind instead of shedding.
func TestRouterRetryStepsBackAnEpoch(t *testing.T) {
	var down atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if down.Load() && req.URL.Host == "rep0" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := newFleetWith(t, 2, makeSnapshot(t, 13, 30, 8), decide, RouterConfig{})
	// Epoch 2 (a churned snapshot) reaches rep0 only, and the router
	// plans at it.
	if _, err := f.pub.Publish(makeSnapshot(t, 14, 34, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.replicas[0].SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.router.ProbeOnce(context.Background())
	if st := f.router.Status(); st.Epoch != 2 || st.HealthyReplicas != 1 {
		t.Fatalf("status before the outage %+v", st)
	}

	down.Store(true)
	const q = "/v1/locate?ip=10.2.0.1"
	wantCode, want := get(t, f.client, repURL(1)+q)
	if wantCode != 200 {
		t.Fatalf("rep1 direct: %d %q", wantCode, want)
	}
	resp, err := f.client.Get("http://router" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != 200 || body.String() != want || resp.Header.Get("X-Geo-Epoch") != "1" {
		t.Fatalf("router: %d epoch %q %q, want rep1's 200 at epoch 1 %q",
			resp.StatusCode, resp.Header.Get("X-Geo-Epoch"), body.String(), want)
	}
	if st := f.router.Status(); st.Retries != 1 || st.Sheds != 0 {
		t.Fatalf("status after the retry %+v", st)
	}
}
