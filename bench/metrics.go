package main

import "slices"

// metricDef names one metric as BENCHMARK.json declares it; the names
// are the interface later performance issues speak in. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before it counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the service sees. Every workload reports
// every one of them; README.md says what each means on each workload.
//
// The timing metrics carry the contract's widest bound: on the shared
// two-CPU box ten runs of one commit spread 7 to 20 % between their
// quartiles whatever the harness does (README.md, Repeatability), and
// the contract accepts a benchmark only if that spread is inside the
// bound. within_limit_frac carries 1 % for the same reason: the churn
// reader's share spread 0.2 to 0.4 %; and epoch_ok_frac 5 %: one late
// epoch of a run's sixty is 1.7 %, and three runs in ten had one.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"lookups_per_s", "1/s", higher, 0.25},
	{"req_p50_us", "us", lower, 0.25},
	{"within_limit_frac", "frac", higher, 0.01},
	{"epoch_propagate_ms_p50", "ms", lower, 0.25},
	{"epoch_ok_frac", "frac", higher, 0.05},
	{"live_heap_mb", "MB", lower, 0.10},
}

// perLayer is the ladder and the counters of single layers, printed by
// the traced run. A layer is a module; the prefix names it.
var perLayer = []metricDef{
	// geoserve, request path: ns per lookup; _c2 on two goroutines.
	{Name: "geoserve.snapshot_lookup_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.engine_lookup_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.engine_lookup_ns_c2", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster1_lookup_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster2_lookup_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster2_lookup_ns_c2", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster8_lookup_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster1_batch_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster2_batch_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.cluster8_batch_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.wire_handler_ns", Unit: "ns", Better: lower},
	{Name: "geoserve.json_handler_us", Unit: "us", Better: lower},
	{Name: "geoserve.engine_lookup_allocs", Unit: "count", Better: lower},
	{Name: "geoserve.wire_handler_allocs", Unit: "count", Better: lower},
	{Name: "geoserve.json_handler_allocs", Unit: "count", Better: lower},
	// geoserve, build path.
	{Name: "geoserve.compile_ms", Unit: "ms", Better: lower},
	{Name: "geoserve.compile_delta_ms", Unit: "ms", Better: lower},
	{Name: "geoserve.delta_dirty_frac", Unit: "frac", Better: lower},
	{Name: "geoserve.delta_rows_recompiled", Unit: "count", Better: lower},
	{Name: "geoserve.delta_rows_patched", Unit: "count", Better: lower},
	{Name: "geoserve.swap_ms", Unit: "ms", Better: lower},
	{Name: "geoserve.swap_delta_ms", Unit: "ms", Better: lower},
	{Name: "geoserve.delta_resplit_shards", Unit: "count", Better: lower},
	// snapfile.
	{Name: "snapfile.encode_ms", Unit: "ms", Better: lower},
	{Name: "snapfile.decode_ms", Unit: "ms", Better: lower},
	{Name: "snapfile.load_ms", Unit: "ms", Better: lower},
	{Name: "snapfile.diff_ms", Unit: "ms", Better: lower},
	{Name: "snapfile.apply_ms", Unit: "ms", Better: lower},
	{Name: "snapfile.file_bytes", Unit: "bytes", Better: lower},
	{Name: "snapfile.delta_bytes", Unit: "bytes", Better: lower},
	{Name: "snapfile.delta_bytes_per_changed_row", Unit: "bytes", Better: lower},
	// replica: publisher, replicas, router.
	{Name: "replica.publish_ms", Unit: "ms", Better: lower},
	{Name: "replica.sync_full_ms", Unit: "ms", Better: lower},
	{Name: "replica.sync_delta_ms", Unit: "ms", Better: lower},
	{Name: "replica.probe_ms", Unit: "ms", Better: lower},
	{Name: "replica.delta_fallbacks", Unit: "count", Better: lower},
	{Name: "replica.fetch_failures", Unit: "count", Better: lower},
	{Name: "replica.direct_bin_rtt_us", Unit: "us", Better: lower},
	{Name: "replica.router_bin_rtt_us", Unit: "us", Better: lower},
	{Name: "replica.direct_json_rtt_us", Unit: "us", Better: lower},
	{Name: "replica.router_json_rtt_us", Unit: "us", Better: lower},
	{Name: "replica.router_retries", Unit: "count", Better: lower},
	{Name: "replica.router_sheds", Unit: "count", Better: lower},
	// churn.
	{Name: "churn.next_ms", Unit: "ms", Better: lower},
	{Name: "churn.events_applied", Unit: "count", Better: higher},
	// core: the pipeline's stages, as announced on Config.Progress.
	{Name: "core.run_s", Unit: "s", Better: lower},
	{Name: "core.stage_world_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_internet_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_fabric_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_publish_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_routeviews_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_collect_ms", Unit: "ms", Better: lower},
	{Name: "core.stage_process_ms", Unit: "ms", Better: lower},
	// obs.
	{Name: "obs.scrape_ms", Unit: "ms", Better: lower},
	{Name: "obs.scrape_bytes", Unit: "bytes", Better: lower},
	{Name: "obs.trace_header_overhead_us", Unit: "us", Better: lower},
	{Name: "obs.lookup_count_agreement", Unit: "frac", Better: higher},
	// bench: the instrument's own floor.
	{Name: "bench.stub_bin_rtt_us", Unit: "us", Better: lower},
	{Name: "bench.stub_json_rtt_us", Unit: "us", Better: lower},
	{Name: "bench.gen_ns_per_lookup", Unit: "ns", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: lower},
	// client: the window as the callers saw it, beyond the medians.
	{Name: "client.req_p90_us", Unit: "us", Better: lower},
	{Name: "client.req_p99_us", Unit: "us", Better: lower},
	{Name: "client.req_max_ms", Unit: "ms", Better: lower},
	{Name: "client.epoch_propagate_ms_p90", Unit: "ms", Better: lower},
	{Name: "client.epoch_propagate_ms_max", Unit: "ms", Better: lower},
	{Name: "client.reader_within_2ms_frac", Unit: "frac", Better: higher},
	{Name: "client.slice_spread_frac.lookups_per_s", Unit: "frac", Better: lower},
	{Name: "client.slice_spread_frac.req_p50_us", Unit: "frac", Better: lower},
	{Name: "failed_frac", Unit: "frac", Better: lower},
	// proc: the whole process over the traced window.
	{Name: "proc.cpu_us_per_req", Unit: "us", Better: lower},
	{Name: "proc.alloc_bytes_per_req", Unit: "bytes", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower},
}

// metricValue is one reported metric: Value is what the contract line
// carries; the rest says how steady it was inside the run.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		m[d.Name] = d.Unit
	}
	return m
}()
