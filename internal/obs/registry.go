package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric handle. It is a plain
// atomic, so recording is lock-free and allocation-free; register it
// once and Add/Inc forever.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable integer metric handle backed by one atomic.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one metric label pair. Labels render in the order given at
// registration, so a fixed registration order makes exposition (and
// the golden that pins it) deterministic.
type Label struct{ Key, Value string }

// Labels is an ordered label set.
type Labels []Label

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled member of a family: either a scalar read func
// or a histogram.
type series struct {
	labels string // rendered {k="v",...} or ""
	value  func() float64
	hist   *Histogram
}

// family is one metric name: help text, a type, and its series in
// registration order.
type family struct {
	name, help, kind string
	series           []*series
	index            map[string]*series
}

// Registry holds a component's metric families and renders them in
// Prometheus text exposition format. Registration takes a mutex and
// may allocate; recording never goes through the registry at all — it
// happens on the handles (atomics) the readers close over. Scrapes
// read live values, so two scrapes under traffic differ in values but
// never in families, labels or ordering.
//
// Re-registering a (name, labels) pair replaces that series' reader in
// place. Hot-swap paths lean on this: a replica rebuilding its serving
// handler for a new epoch re-registers the serving families against the
// same registry, and the scrape keeps its family set without
// duplicates.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// CounterFunc registers a counter series read from fn at scrape time —
// the bridge onto counters that already live as atomics elsewhere.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, kindCounter, help, labels, func() float64 { return float64(fn()) }, nil)
}

// RegisterCounter registers a Counter handle as a series of name.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.CounterFunc(name, help, labels, c.Value)
}

// GaugeFunc registers a gauge series computed by fn at scrape time.
// fn may take locks (scrapes are rare); it must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, kindGauge, help, labels, fn, nil)
}

// RegisterGauge registers a Gauge handle as a series of name.
func (r *Registry) RegisterGauge(name, help string, labels Labels, g *Gauge) {
	r.GaugeFunc(name, help, labels, func() float64 { return float64(g.Value()) })
}

// RegisterHistogram registers a Histogram as a series of name. It is
// exposed on the fixed export ladder (see ExportBounds) with exact
// cumulative bucket counts, a bucket-estimated _sum, and _count.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	r.register(name, kindHistogram, help, labels, nil, h)
}

func (r *Registry) register(name, kind, help string, labels Labels, value func() float64, hist *Histogram) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, index: map[string]*series{}}
		r.families[name] = f
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if s := f.index[ls]; s != nil {
		// Replace in place: an epoch hot-swap re-registers the family
		// against fresh serving state without resetting the scrape shape.
		s.value, s.hist = value, hist
		return
	}
	s := &series{labels: ls, value: value, hist: hist}
	f.series = append(f.series, s)
	f.index[ls] = s
}

// renderLabels renders an ordered label set as {k="v",...} with
// Prometheus escaping; an empty set renders as "".
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// exportLE[i] is the exposition form of export bound i in seconds.
var exportLE = buildExportLE()

func buildExportLE() []string {
	le := make([]string, len(exportBounds))
	for i, ns := range exportBounds {
		le[i] = strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
	}
	return le
}

// WritePrometheus renders every family in Prometheus text exposition
// format: families sorted by name, series in registration order,
// histograms on the fixed export ladder.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names {
		f := r.families[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			if f.kind == kindHistogram {
				writeHistogram(bw, f.name, s)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines over the export ladder, an approximate _sum (seconds, from
// bucket lower bounds), and _count.
func writeHistogram(w *bufio.Writer, name string, s *series) {
	counts := s.hist.Export()
	var cum uint64
	for i, le := range exportLE {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(s.labels, le), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(s.labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatValue(float64(s.hist.ApproxSumNs())/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, cum)
}

// bucketLabels splices le into a rendered label set.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FamilyNames returns the registered family names, sorted — what the
// fleet CI gate diffs against its allowlist.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Handler serves GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
