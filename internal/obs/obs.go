// Package obs is the serving stack's zero-dependency observability
// layer: a lock-free metrics registry exposed in Prometheus text
// format, the shared latency histogram type the serving tiers record
// into, and request-scoped tracing with a bounded in-memory span ring
// served as JSON.
//
// Design constraints, in order:
//
//   - The hot path stays allocation-free. Metrics are recorded on
//     plain atomics the component owns; the registry only runs at
//     scrape time, when each component's collector reads its status
//     once and emits every sample from it. Nothing on a lookup's path
//     ever touches a map.
//   - One status surface: every /metrics sample is a field of the
//     component's Status(), the struct /statusz encodes, so the two
//     cannot disagree.
//   - Exposition is deterministic: families sort by name, series keep
//     emission order, histogram bucket ladders are fixed — so a golden
//     test can pin every family, label set and bucket layout.
//   - Tracing is strictly opt-in per request: a request without an
//     X-Geo-Trace header records nothing and costs one header lookup.
//     Traced requests record per-hop spans into a fixed ring with a
//     slow-request retention bias (see Recorder).
//
// An Observability bundles one component's Registry and Recorder so a
// serving handler can mount GET /metrics and GET /debug/tracez. A
// component registers one collector when it is built; an epoch
// hot-swap that rebuilds its handler registers nothing.
package obs

import "net/http"

// Observability bundles one component's metrics registry and trace
// recorder. Components that hot-swap serving state (the replica's
// per-epoch handler rebuild) create one bundle up front, register one
// collector that follows the current epoch, and thread the bundle
// through every rebuild for its trace ring.
type Observability struct {
	// Component names the process role ("cluster", "replica", "router",
	// ...); it labels tracez output and the component info
	// gauge.
	Component string
	Metrics   *Registry
	Traces    *Recorder
}

// NewObservability builds a bundle with a fresh registry and recorder.
func NewObservability(component string) *Observability {
	o := &Observability{
		Component: component,
		Metrics:   NewRegistry(),
		Traces:    NewRecorder(component),
	}
	o.Metrics.Collect(func(e *Emitter) {
		e.Gauge("geoserve_component_info", "Always 1; the component label identifies the process role.", Labels{{"component", component}}, 1)
		e.Counter("geoserve_trace_spans_total", "Trace spans recorded into the tracez ring.", nil, o.Traces.Recorded())
	})
	return o
}

// Mount attaches the observability endpoints to a serving mux:
//
//	GET /metrics        Prometheus text exposition
//	GET /debug/tracez   recent + slow trace spans, JSON, newest first
func (o *Observability) Mount(mux *http.ServeMux) {
	mux.Handle("GET /metrics", o.Metrics.Handler())
	mux.Handle("GET /debug/tracez", o.Traces.Handler())
}
