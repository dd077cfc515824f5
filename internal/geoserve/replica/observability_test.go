package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
	"geonet/internal/obs"
)

// knownFamilies is every metric family the serving stack may expose.
// A scrape containing a family outside this list fails the fleet test:
// renaming or adding a family must be a deliberate act here and in the
// golden file, because dashboards and alerts key on these names.
var knownFamilies = map[string]bool{
	"geoserve_component_info":                     true,
	"geoserve_trace_spans_total":                  true,
	"geoserve_requests_total":                     true,
	"geoserve_lookups_total":                      true,
	"geoserve_lookup_latency_seconds":             true,
	"geoserve_window_qps":                         true,
	"geoserve_snapshot_swaps_total":               true,
	"geoserve_cluster_batches_total":              true,
	"geoserve_cluster_shed_batches_total":         true,
	"geoserve_cluster_fanout_total":               true,
	"geoserve_cluster_delta_swaps_total":          true,
	"geoserve_cluster_resplit_shards_total":       true,
	"geoserve_shard_lookups_total":                true,
	"geoserve_shard_shed_total":                   true,
	"geoserve_shard_inflight":                     true,
	"geoserve_wire_batch_frames_total":            true,
	"geoserve_wire_stream_frames_total":           true,
	"geoserve_wire_error_frames_total":            true,
	"geoserve_wire_rx_bytes_total":                true,
	"geoserve_wire_tx_bytes_total":                true,
	"geoserve_wire_epoch_changes_total":           true,
	"geoserve_replication_epoch":                  true,
	"geoserve_replication_epoch_age_seconds":      true,
	"geoserve_replication_seconds_since_contact":  true,
	"geoserve_replication_stale":                  true,
	"geoserve_replication_fetches_total":          true,
	"geoserve_replication_fetch_failures_total":   true,
	"geoserve_replication_resumes_total":          true,
	"geoserve_replication_swaps_total":            true,
	"geoserve_replication_delta_syncs_total":      true,
	"geoserve_replication_delta_fallbacks_total":  true,
	"geoserve_replication_epoch_gone_total":       true,
	"geoserve_replication_warmup_failures_total":  true,
	"geoserve_replication_warmup_failed":          true,
	"geoserve_replication_draining":               true,
	"geoserve_replication_inflight":               true,
	"geoserve_router_requests_total":              true,
	"geoserve_router_retries_total":               true,
	"geoserve_router_sheds_total":                 true,
	"geoserve_router_budget_denied_total":         true,
	"geoserve_router_retry_budget":                true,
	"geoserve_router_plan_epoch":                  true,
	"geoserve_router_healthy_replicas":            true,
	"geoserve_router_draining":                    true,
	"geoserve_router_inflight":                    true,
	"geoserve_router_replica_healthy":             true,
	"geoserve_router_replica_inflight":            true,
	"geoserve_router_replica_latency_ewma_ms":     true,
	"geoserve_router_replica_breaker_state":       true,
	"geoserve_router_replica_epoch":               true,
	"geoserve_router_replica_requests_total":      true,
	"geoserve_router_replica_failures_total":      true,
	"geoserve_router_replica_ejections_total":     true,
	"geoserve_router_replica_readmissions_total":  true,
	"geoserve_router_replica_breaker_trips_total": true,
}

// scrapeFamilies parses a Prometheus text exposition into its family
// names (from # TYPE lines).
func scrapeFamilies(tb testing.TB, body string) []string {
	tb.Helper()
	var fams []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				tb.Fatalf("malformed TYPE line %q", line)
			}
			fams = append(fams, name)
		}
	}
	if len(fams) == 0 {
		tb.Fatalf("scrape exposed no families:\n%s", body)
	}
	return fams
}

// scrapeSamples parses a Prometheus text exposition into its samples,
// keyed by the series as written (name plus rendered labels).
func scrapeSamples(tb testing.TB, body string) map[string]float64 {
	tb.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			tb.Fatalf("unparsable sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// tracezBody is the /debug/tracez response shape.
type tracezBody struct {
	Component string `json:"component"`
	Recent    []struct {
		Trace string `json:"trace"`
		Name  string `json:"name"`
	} `json:"recent"`
}

// shardedFleet is a publisher + n replicas serving through 2-shard
// clusters + a router, wired over in-memory transports — the smallest
// deployment in which a traced batch crosses all three hop kinds
// (router → replica → cluster). decide injects faults, as in newFleet.
func shardedFleet(tb testing.TB, n int, snap *geoserve.Snapshot, decide faultinject.Decider) *fleet {
	tb.Helper()
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.mux = mux
	f.client, f.tr = localClient(mux, decide)
	for i := 0; i < n; i++ {
		rep := New(Config{BuilderURL: "http://builder", Client: f.client, Shards: 2})
		f.replicas = append(f.replicas, rep)
		mux[fmt.Sprintf("rep%d", i)] = rep.Handler()
	}
	var urls []string
	for i := range f.replicas {
		urls = append(urls, repURL(i))
	}
	f.router = NewRouter(RouterConfig{Replicas: urls, Client: f.client, FailThreshold: 1})
	mux["router"] = f.router.Handler()
	if _, err := f.pub.Publish(snap); err != nil {
		tb.Fatal(err)
	}
	f.syncAll(tb)
	f.router.ProbeOnce(context.Background())
	return f
}

// TestFleetObservability boots a replicated sharded fleet in-process,
// drives a batch through the router, and checks the whole observability
// contract end to end: the router mints a trace ID, the ID propagates
// across the router → replica → cluster hops (visible in each tier's
// /debug/tracez), and every node's /metrics scrape exposes only known
// families.
func TestFleetObservability(t *testing.T) {
	snap := makeSnapshot(t, 7, 32, 8)
	f := shardedFleet(t, 2, snap, nil)

	resp, body := postBatch(t, f.client, "http://router", "alpha", batchIPs(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	if _, ok := obs.ParseTraceID(traceID); !ok {
		t.Fatalf("router response carries no valid %s header: %q", obs.TraceHeader, traceID)
	}

	// Collect this trace's spans across every tier's tracez endpoint.
	spanNames := map[string]bool{}
	hosts := []string{"router", "rep0", "rep1"}
	for _, host := range hosts {
		code, body := get(t, f.client, "http://"+host+"/debug/tracez")
		if code != http.StatusOK {
			t.Fatalf("%s tracez status %d", host, code)
		}
		var tz tracezBody
		if err := json.Unmarshal([]byte(body), &tz); err != nil {
			t.Fatalf("%s tracez: %v", host, err)
		}
		for _, s := range tz.Recent {
			if s.Trace == traceID {
				spanNames[s.Name] = true
			}
		}
	}
	for _, want := range []string{"router.forward", "serve.batch", "cluster.serve"} {
		if !spanNames[want] {
			t.Errorf("trace %s missing a %q span across the fleet (got %v)", traceID, want, spanNames)
		}
	}
	if len(spanNames) < 3 {
		t.Fatalf("trace %s spans %v: want >= 3 hop spans", traceID, spanNames)
	}

	// Every node's scrape must expose only known families, and the
	// tiers' signature families must be present.
	mustHave := map[string][]string{
		"router": {"geoserve_router_requests_total", "geoserve_router_replica_healthy", "geoserve_trace_spans_total"},
		"rep0":   {"geoserve_replication_epoch", "geoserve_replication_epoch_age_seconds", "geoserve_requests_total", "geoserve_lookup_latency_seconds"},
		"rep1":   {"geoserve_replication_epoch", "geoserve_wire_batch_frames_total"},
	}
	for _, host := range hosts {
		code, body := get(t, f.client, "http://"+host+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("%s metrics status %d", host, code)
		}
		fams := scrapeFamilies(t, body)
		have := map[string]bool{}
		for _, fam := range fams {
			have[fam] = true
			if !knownFamilies[fam] {
				t.Errorf("%s exposes unknown family %q — rename requires updating knownFamilies and the golden", host, fam)
			}
		}
		for _, want := range mustHave[host] {
			if !have[want] {
				t.Errorf("%s scrape missing family %q", host, want)
			}
		}
	}
}

// TestShedBodyCarriesTraceID pins satellite contract: when the router
// sheds (no healthy replica holds a complete epoch), the 503 body
// quotes the originating trace ID so the client can hand operators the
// exact request to find in /debug/tracez.
func TestShedBodyCarriesTraceID(t *testing.T) {
	f := newFleet(t, 1, nil, nil) // nothing published: every request sheds
	id := obs.NewTraceID()
	req, err := http.NewRequest("GET", "http://router/v1/locate?ip=10.0.0.1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, id.String())
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != id.String() {
		t.Fatalf("shed response header trace %q, want %q", got, id)
	}
	var body struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != id.String() {
		t.Fatalf("shed body trace_id %q, want %q (error: %q)", body.TraceID, id, body.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
}

// normalizeMetrics replaces every sample value with V, keeping names,
// labels and bucket layouts — the stable surface the golden pins.
func normalizeMetrics(body string) string {
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			out.WriteString(line)
			out.WriteByte('\n')
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			out.WriteString(line)
			out.WriteByte('\n')
			continue
		}
		out.WriteString(line[:i])
		out.WriteString(" V\n")
	}
	return out.String()
}

// TestGoldenMetricsFamilies pins the full metric surface — family
// names, help text, label sets and histogram bucket layouts — of all
// three handler kinds against a golden file. Values are normalized, so
// the golden only changes when the exposition contract does; refresh
// deliberately with -update.
func TestGoldenMetricsFamilies(t *testing.T) {
	snap := makeSnapshot(t, 7, 32, 8)
	scrape := func(h http.Handler) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("metrics scrape status %d", w.Code)
		}
		return w.Body.String()
	}

	var got strings.Builder
	section := func(name, body string) {
		fmt.Fprintf(&got, "== %s ==\n%s\n", name, normalizeMetrics(body))
	}

	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	section("cluster", scrape(geoserve.NewHandler(cluster)))

	f := shardedFleet(t, 2, snap, nil)
	_, body := get(t, f.client, "http://rep0/metrics")
	section("replica", body)
	_, body = get(t, f.client, "http://router/metrics")
	section("router", body)

	golden := filepath.Join("testdata", "metrics_families.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("metric families changed; diff against %s and re-run with -update if deliberate.\ngot:\n%s", golden, got.String())
	}
}

// The *Fields tables map every scalar family a component emits to the
// /statusz key it renders, by dotted path — the test's own statement of
// the mapping, independent of the collectors'. A replica's serving
// families are the cluster's, read from its "serving" section.
var clusterFields = map[string]string{
	"geoserve_requests_total":               "lookups",
	"geoserve_window_qps":                   "qps_window",
	"geoserve_snapshot_swaps_total":         "snapshot.swaps",
	"geoserve_cluster_batches_total":        "batches",
	"geoserve_cluster_shed_batches_total":   "shed_batches",
	"geoserve_cluster_fanout_total":         "fanout",
	"geoserve_cluster_delta_swaps_total":    "delta_swaps",
	"geoserve_cluster_resplit_shards_total": "resplit_shards",
	"geoserve_wire_batch_frames_total":      "wire.batch_frames",
	"geoserve_wire_stream_frames_total":     "wire.stream_frames",
	"geoserve_wire_error_frames_total":      "wire.error_frames",
	"geoserve_wire_rx_bytes_total":          "wire.rx_bytes",
	"geoserve_wire_tx_bytes_total":          "wire.tx_bytes",
	"geoserve_wire_epoch_changes_total":     "wire.epoch_changes",
}

var shardFields = map[string]string{
	"geoserve_shard_lookups_total": "lookups",
	"geoserve_shard_shed_total":    "shed_batches",
	"geoserve_shard_inflight":      "inflight",
}

var replicaFields = map[string]string{
	"geoserve_replication_epoch":                 "epoch",
	"geoserve_replication_epoch_age_seconds":     "epoch_age_seconds",
	"geoserve_replication_seconds_since_contact": "seconds_since_contact",
	"geoserve_replication_stale":                 "stale_epoch",
	"geoserve_replication_fetches_total":         "fetches",
	"geoserve_replication_fetch_failures_total":  "fetch_failures",
	"geoserve_replication_resumes_total":         "resumes",
	"geoserve_replication_swaps_total":           "swaps",
	"geoserve_replication_delta_syncs_total":     "delta_syncs",
	"geoserve_replication_delta_fallbacks_total": "delta_fallbacks",
	"geoserve_replication_epoch_gone_total":      "epoch_gone_races",
	"geoserve_replication_warmup_failures_total": "warmup_failures",
	"geoserve_replication_warmup_failed":         "warmup_failed",
	"geoserve_replication_draining":              "state",
	"geoserve_replication_inflight":              "in_flight",
}

var routerFields = map[string]string{
	"geoserve_router_requests_total":      "requests",
	"geoserve_router_retries_total":       "retries",
	"geoserve_router_sheds_total":         "sheds",
	"geoserve_router_budget_denied_total": "budget_denied",
	"geoserve_router_retry_budget":        "retry_budget",
	"geoserve_router_plan_epoch":          "epoch",
	"geoserve_router_healthy_replicas":    "healthy_replicas",
	"geoserve_router_draining":            "draining",
	"geoserve_router_inflight":            "in_flight",
}

var memberFields = map[string]string{
	"geoserve_router_replica_healthy":             "healthy",
	"geoserve_router_replica_inflight":            "in_flight",
	"geoserve_router_replica_latency_ewma_ms":     "latency_ms_ewma",
	"geoserve_router_replica_breaker_state":       "breaker_state",
	"geoserve_router_replica_epoch":               "epoch",
	"geoserve_router_replica_requests_total":      "requests",
	"geoserve_router_replica_failures_total":      "failures",
	"geoserve_router_replica_ejections_total":     "ejections",
	"geoserve_router_replica_readmissions_total":  "readmissions",
	"geoserve_router_replica_breaker_trips_total": "breaker_trips",
}

// statuszDoc is a decoded /statusz body.
type statuszDoc map[string]any

// at walks a dotted path. A key /statusz omits (omitempty) reads as 0.
func (d statuszDoc) at(tb testing.TB, path string) any {
	tb.Helper()
	var v any = map[string]any(d)
	for _, key := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			tb.Fatalf("statusz path %q: %q is not an object", path, key)
		}
		if v, ok = m[key]; !ok {
			return 0.0
		}
	}
	return v
}

// sampleValue is a /statusz value as /metrics writes it: numbers as
// they are, flags as 0/1, and the two string-valued fields by their
// documented encodings.
func sampleValue(tb testing.TB, v any) float64 {
	tb.Helper()
	switch v := v.(type) {
	case float64:
		return v
	case bool:
		return b2f(v)
	case string:
		switch v {
		case "closed", "serving", "empty":
			return 0
		case "half-open", "draining":
			return 1
		case "open":
			return 2
		}
	}
	tb.Fatalf("statusz value %v (%T) has no sample encoding", v, v)
	return 0
}

// expectedSamples derives, from one /statusz document, every scalar
// sample the same node's /metrics must carry: the scalars, and for each
// element of the items list the perItem families labeled label = the
// element's idKey.
func expectedSamples(tb testing.TB, doc statuszDoc, scalars, perItem map[string]string, items, idKey, label string) map[string]float64 {
	tb.Helper()
	want := map[string]float64{}
	for fam, path := range scalars {
		want[fam] = sampleValue(tb, doc.at(tb, path))
	}
	list, _ := doc.at(tb, items).([]any)
	for _, it := range list {
		item := statuszDoc(it.(map[string]any))
		id := item.at(tb, idKey)
		if f, ok := id.(float64); ok {
			id = strconv.Itoa(int(f))
		}
		for fam, path := range perItem {
			want[fmt.Sprintf("%s{%s=%q}", fam, label, id)] = sampleValue(tb, item.at(tb, path))
		}
	}
	return want
}

// clusterSamples is expectedSamples for a cluster's status document,
// plus one geoserve_lookups_total series for every mapper × method,
// zeros included.
func clusterSamples(tb testing.TB, doc statuszDoc) map[string]float64 {
	tb.Helper()
	want := expectedSamples(tb, doc, clusterFields, shardFields, "shard_stats", "id", "shard")
	for _, mapper := range doc.at(tb, "snapshot.mappers").([]any) {
		for _, method := range []string{"unmapped", "feed", "hostname", "loc", "whois"} {
			key := fmt.Sprintf("geoserve_lookups_total{mapper=%q,method=%q}", mapper, method)
			want[key] = sampleValue(tb, doc.at(tb, fmt.Sprintf("methods.%s.%s", mapper, method)))
		}
	}
	return want
}

// TestMetricsAgreeWithStatusz pins the one-status-surface invariant on
// all three components: after mixed traffic (single lookups, JSON
// batches, binary frames, a retried request and a shed one) and with
// the fleet quiet, every scalar sample a node's /metrics carries equals
// the /statusz field it renders — every {mapper,method} series (zeros
// included), every {shard} and every {replica} series — and /metrics
// carries nothing else but the bundle's own two families and the
// latency histograms. Clock-driven gauges must lie between a /statusz
// read before the scrape and one after it.
func TestMetricsAgreeWithStatusz(t *testing.T) {
	snap := makeSnapshot(t, 7, 32, 8)
	var dropNext atomic.Int32 // fail this many router → replica forwards
	f := shardedFleet(t, 2, snap, func(_ int, req *http.Request) faultinject.Fault {
		if strings.HasPrefix(req.URL.Host, "rep") && req.URL.Path != "/healthz" && dropNext.Add(-1) >= 0 {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	})
	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.mux["cluster"] = geoserve.NewHandler(cluster)
	traffic := func(host string, wantCode int) {
		t.Helper()
		for _, ip := range batchIPs(9) {
			if code, body := get(t, f.client, host+"/v1/locate?mapper=beta&ip="+ip); code != wantCode {
				t.Fatalf("GET %s single: status %d: %s", host, code, body)
			}
		}
		if resp, body := postBatch(t, f.client, host, "alpha", batchIPs(64)); resp.StatusCode != wantCode {
			t.Fatalf("POST %s batch: status %d: %s", host, resp.StatusCode, body)
		}
		if code, _ := postWireBin(t, f.client, host, 1, wireIPs(t, 64)); code != wantCode {
			t.Fatalf("POST %s bin: status %d", host, code)
		}
	}
	traffic("http://cluster", http.StatusOK)
	traffic("http://rep0", http.StatusOK)
	traffic("http://router", http.StatusOK)
	// One forward fails and is retried on the other replica; then both
	// fail, so the request is shed and both members are ejected until
	// the next probe readmits them.
	dropNext.Store(1)
	if code, body := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != http.StatusOK {
		t.Fatalf("retried request: status %d: %s", code, body)
	}
	f.router.ProbeOnce(context.Background())
	dropNext.Store(2)
	if code, body := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != http.StatusServiceUnavailable {
		t.Fatalf("request with every replica failing: status %d: %s", code, body)
	}
	dropNext.Store(0)
	f.router.ProbeOnce(context.Background())
	traffic("http://router", http.StatusOK)

	statusz := func(host string) statuszDoc {
		t.Helper()
		code, body := get(t, f.client, host+"/statusz")
		var doc statuszDoc
		if err := json.Unmarshal([]byte(body), &doc); code != http.StatusOK || err != nil {
			t.Fatalf("%s/statusz: status %d: %v", host, code, err)
		}
		return doc
	}
	nodes := []struct {
		host    string
		samples func(statuszDoc) map[string]float64
		// nonzero names samples the traffic above must have moved, so
		// the comparison is not of zeros with zeros.
		nonzero []string
	}{
		{"http://cluster", func(d statuszDoc) map[string]float64 { return clusterSamples(t, d) },
			[]string{"geoserve_requests_total", "geoserve_cluster_batches_total", "geoserve_wire_batch_frames_total",
				`geoserve_shard_lookups_total{shard="0"}`, `geoserve_lookups_total{mapper="beta",method="unmapped"}`}},
		{"http://rep0", func(d statuszDoc) map[string]float64 {
			want := expectedSamples(t, d, replicaFields, nil, "", "", "")
			maps.Copy(want, clusterSamples(t, statuszDoc(d.at(t, "serving").(map[string]any))))
			return want
		}, []string{"geoserve_replication_epoch", "geoserve_replication_swaps_total", "geoserve_requests_total",
			"geoserve_wire_tx_bytes_total", `geoserve_lookups_total{mapper="alpha",method="unmapped"}`}},
		{"http://router", func(d statuszDoc) map[string]float64 {
			return expectedSamples(t, d, routerFields, memberFields, "replicas", "url", "replica")
		}, []string{"geoserve_router_requests_total", "geoserve_router_retries_total", "geoserve_router_sheds_total",
			"geoserve_router_plan_epoch", `geoserve_router_replica_readmissions_total{replica="http://rep1"}`,
			`geoserve_router_replica_failures_total{replica="http://rep0"}`, `geoserve_router_replica_healthy{replica="http://rep0"}`}},
	}
	for _, node := range nodes {
		t.Run(strings.TrimPrefix(node.host, "http://"), func(t *testing.T) {
			before := node.samples(statusz(node.host))
			code, body := get(t, f.client, node.host+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("scrape status %d: %s", code, body)
			}
			after := node.samples(statusz(node.host))
			got := scrapeSamples(t, body)
			for key, v := range got {
				fam, _, _ := strings.Cut(key, "{")
				if fam == "geoserve_component_info" || fam == "geoserve_trace_spans_total" ||
					strings.HasPrefix(fam, "geoserve_lookup_latency_seconds_") {
					continue
				}
				lo, ok := before[key]
				hi := after[key]
				if !ok {
					t.Errorf("/metrics sample %s = %v renders no /statusz field", key, v)
				} else if v < min(lo, hi) || v > max(lo, hi) {
					t.Errorf("/metrics %s = %v, /statusz says %v before the scrape and %v after", key, v, lo, hi)
				}
			}
			for key := range before {
				if _, ok := got[key]; !ok {
					t.Errorf("/statusz field behind %s is missing from /metrics", key)
				}
			}
			for _, key := range node.nonzero {
				if got[key] == 0 {
					t.Errorf("%s = 0 after the traffic: the comparison proves nothing for it", key)
				}
			}
		})
	}
}
