package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric handle. It is a plain
// atomic, so recording is lock-free and allocation-free; a component's
// status reads it with Value and its collector emits that.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Label is one metric label pair. Labels render in the order given at
// emission, so a fixed emission order makes exposition (and the golden
// that pins it) deterministic.
type Label struct{ Key, Value string }

// Labels is an ordered label set.
type Labels []Label

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled member of a family: either a scalar sample or
// a histogram.
type series struct {
	labels string // rendered {k="v",...} or ""
	value  float64
	hist   *Histogram
}

// family is one metric name: help text, a type, and its series in
// emission order.
type family struct {
	name, help, kind string
	series           []series
}

// Registry holds a component's collectors and renders what they emit
// in Prometheus text exposition format. A collector is registered once,
// for the life of the process, and runs once per scrape: it reads the
// component's status and emits every sample from it, so a scrape and
// /statusz cannot disagree and nothing is registered again when the
// serving state behind a collector is replaced. Recording never goes
// through the registry at all — it happens on the atomics the status
// reads. Two scrapes under traffic differ in values but never in
// families, labels or ordering.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Emitter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect adds a collector. fn runs on the scraping goroutine with no
// registry lock held and may take the component's own locks.
func (r *Registry) Collect(fn func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Emitter gathers one scrape's samples. Emitting one name under two
// kinds, or one (name, labels) pair twice, fails the scrape.
type Emitter struct {
	families map[string]*family
	err      error
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name, help string, labels Labels, v uint64) {
	e.add(name, kindCounter, help, labels, float64(v), nil)
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, labels Labels, v float64) {
	e.add(name, kindGauge, help, labels, v, nil)
}

// Histogram emits h as one histogram series, exposed on the fixed
// export ladder (see exportBounds) with exact cumulative bucket counts,
// a bucket-estimated _sum, and _count. h is read when the scrape is
// written.
func (e *Emitter) Histogram(name, help string, labels Labels, h *Histogram) {
	e.add(name, kindHistogram, help, labels, 0, h)
}

func (e *Emitter) add(name, kind, help string, labels Labels, value float64, hist *Histogram) {
	ls := renderLabels(labels)
	f := e.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		e.families[name] = f
	}
	dup := slices.ContainsFunc(f.series, func(s series) bool { return s.labels == ls })
	switch {
	case e.err != nil: // the first error is the one reported
	case f.kind != kind:
		e.err = fmt.Errorf("obs: metric %q emitted as %s and %s", name, f.kind, kind)
	case dup:
		e.err = fmt.Errorf("obs: sample %s%s emitted twice in one scrape", name, ls)
	}
	f.series = append(f.series, series{labels: ls, value: value, hist: hist})
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

// WritePrometheus runs every collector once and renders what they
// emitted in Prometheus text exposition format: families sorted by
// name, series in emission order, histograms on the fixed export
// ladder. A scrape a collector failed (see Emitter) writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := r.collectors
	r.mu.Unlock()
	e := &Emitter{families: map[string]*family{}}
	for _, collect := range collectors {
		collect(e)
	}
	if e.err != nil {
		return e.err
	}
	bw := bufio.NewWriter(w)
	for _, name := range slices.Sorted(maps.Keys(e.families)) {
		f := e.families[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for i := range f.series {
			s := &f.series[i]
			if f.kind == kindHistogram {
				writeHistogram(bw, f.name, s)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
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

// Handler serves GET /metrics; a failed scrape answers 500 with the
// collector's error.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(b.Bytes())
	})
}
