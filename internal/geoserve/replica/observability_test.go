package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// (router → replica → cluster).
func shardedFleet(tb testing.TB, n int, snap *geoserve.Snapshot) *fleet {
	tb.Helper()
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.client, f.tr = localClient(mux, nil)
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
	f := shardedFleet(t, 2, snap)

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

	f := shardedFleet(t, 2, snap)
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
