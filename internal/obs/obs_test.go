package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []TraceID{1, 0xdeadbeef, 0xffffffffffffffff, 0x0123456789abcdef} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("String(%x) = %q, want 16 hex digits", uint64(id), s)
		}
		got, ok := ParseTraceID(s)
		if !ok || got != id {
			t.Fatalf("ParseTraceID(%q) = %x, %v; want %x, true", s, uint64(got), ok, uint64(id))
		}
	}
	for _, bad := range []string{"", "0", "xyz", strings.Repeat("f", 17), "12 4"} {
		if id, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID(%q) accepted as %x", bad, uint64(id))
		}
	}
	if got, ok := ParseTraceID("DEADBEEF"); !ok || got != 0xdeadbeef {
		t.Fatalf("uppercase parse = %x, %v", uint64(got), ok)
	}
}

func TestNewTraceIDDistinct(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("NewTraceID produced zero or duplicate %x at %d", uint64(id), i)
		}
		seen[id] = true
	}
}

func TestHistogramExportExact(t *testing.T) {
	h := &Histogram{}
	// One observation per fine bucket boundary value.
	for _, ns := range []uint64{1, 31, 32, 100, 1 << 20, 1 << 35, 1 << 40} {
		h.RecordN(time.Duration(ns), 1)
	}
	counts := h.Export()
	if len(counts) != len(exportBounds)+1 {
		t.Fatalf("Export returned %d buckets, want %d", len(counts), len(exportBounds)+1)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != h.Count() {
		t.Fatalf("export total %d != count %d", total, h.Count())
	}
	// 1 and 31 fall below the first bound (32ns); 32 and 100 in the
	// second (128ns requires <128: 32 yes, 100 yes)... verify
	// cumulative against a direct rule: cum(le) counts obs < le except
	// exact-boundary obs land in the next bucket.
	if counts[0] != 2 { // 1ns, 31ns
		t.Fatalf("bucket[0] (<32ns) = %d, want 2", counts[0])
	}
	if counts[1] != 2 { // 32ns, 100ns < 128ns
		t.Fatalf("bucket[1] (<128ns) = %d, want 2", counts[1])
	}
	// 1<<35 sits exactly on the last bound (le is exclusive at the
	// recording edge) and 1<<40 is past the ladder: both overflow.
	if counts[len(counts)-1] != 2 {
		t.Fatalf("overflow bucket = %d, want 2", counts[len(counts)-1])
	}
}

func TestRegistryExpositionDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		var c Counter
		c.Add(42)
		h := &Histogram{}
		h.RecordN(100*time.Nanosecond, 1)
		h.RecordN(time.Millisecond, 1)
		r.Collect(func(e *Emitter) {
			e.Counter("zeta_total", "Last alphabetically.", nil, c.Value())
			e.Counter("alpha_total", "First alphabetically.", Labels{{"shard", "0"}}, 7)
		})
		// A second collector adds to a family the first began.
		r.Collect(func(e *Emitter) {
			e.Counter("alpha_total", "First alphabetically.", Labels{{"shard", "1"}}, 9)
			e.Gauge("mid_gauge", "A gauge.", nil, 1.5)
			e.Histogram("lat_seconds", "A histogram.", Labels{{"kind", "x"}}, h)
		})
		return r
	}
	var a, b strings.Builder
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two identical registries rendered differently:\n%s\n---\n%s", a.String(), b.String())
	}
	out := a.String()
	// Families sorted by name, series in emission order.
	ia, im, iz := strings.Index(out, "# HELP alpha_total"), strings.Index(out, "# HELP mid_gauge"), strings.Index(out, "# HELP zeta_total")
	if !(ia >= 0 && ia < im && im < iz) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"alpha_total{shard=\"0\"} 7\nalpha_total{shard=\"1\"} 9\n",
		"mid_gauge 1.5",
		"zeta_total 42",
		`lat_seconds_bucket{kind="x",le="+Inf"} 2`,
		`lat_seconds_count{kind="x"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryRejectsBadScrape pins that a sample emitted twice, or a
// name emitted under two kinds, within one scrape is an error and an
// HTTP 500 with nothing of the exposition written — not a silent
// overwrite — and that the next scrape is judged afresh.
func TestRegistryRejectsBadScrape(t *testing.T) {
	for name, second := range map[string]func(*Emitter){
		"duplicate sample": func(e *Emitter) { e.Counter("x_total", "X.", Labels{{"k", "v"}}, 2) },
		"kind mismatch":    func(e *Emitter) { e.Gauge("x_total", "X.", nil, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			bad := true
			r.Collect(func(e *Emitter) {
				e.Counter("x_total", "X.", Labels{{"k", "v"}}, 1)
				if bad {
					second(e)
				}
			})
			var b strings.Builder
			if err := r.WritePrometheus(&b); err == nil || !strings.Contains(err.Error(), "x_total") || b.Len() != 0 {
				t.Fatalf("bad scrape: err = %v, wrote %q; want an error naming x_total and no output", err, b.String())
			}
			w := httptest.NewRecorder()
			r.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
			if w.Code != 500 || strings.Contains(w.Body.String(), "# TYPE") {
				t.Fatalf("bad scrape over HTTP: status %d, body %q; want 500 and no exposition", w.Code, w.Body.String())
			}
			bad = false
			if err := r.WritePrometheus(&b); err != nil || !strings.Contains(b.String(), "x_total{k=\"v\"} 1\n") {
				t.Fatalf("scrape after the fault cleared: err = %v, wrote %q", err, b.String())
			}
		})
	}
}

// TestRegistryConcurrentScrape races recording handles and histogram
// records against concurrent scrapes and collector registrations; run
// under -race this is the registry's thread-safety proof.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var c Counter
	h := &Histogram{}
	r.Collect(func(e *Emitter) {
		e.Counter("req_total", "Requests.", nil, c.Value())
		e.Histogram("lat_seconds", "Latency.", nil, h)
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.RecordN(time.Duration(i%1000)*time.Microsecond, 1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("late_%d_total", i)
			r.Collect(func(e *Emitter) { e.Counter(name, "Registered mid-scrape.", nil, c.Value()) })
		}
	}()
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 100; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("scrape %d: %v", i, err)
				}
				if !strings.Contains(b.String(), "req_total") {
					t.Errorf("scrape %d lost a family", i)
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	wg.Wait()
}

func TestRecorderSlowBias(t *testing.T) {
	rec := NewRecorder("test")
	rec.slowNs = int64(time.Millisecond)
	slow := Span{Trace: 0x51, Name: "slow", Duration: 5 * time.Millisecond}
	rec.Record(slow)
	// Flood the recent ring with fast spans.
	for i := 0; i < recentSpanCap+10; i++ {
		rec.Record(Span{Trace: TraceID(i + 100), Name: "fast", Duration: time.Microsecond})
	}
	for _, s := range rec.Spans() {
		if s.Name == "slow" {
			t.Fatal("slow span should have been evicted from the recent ring")
		}
	}
	slows := rec.SlowSpans()
	if len(slows) != 1 || slows[0].Name != "slow" {
		t.Fatalf("slow ring = %+v, want the one slow span", slows)
	}
	if rec.Recorded() != uint64(recentSpanCap+11) {
		t.Fatalf("Recorded() = %d", rec.Recorded())
	}
}

func TestRecorderNewestFirst(t *testing.T) {
	rec := NewRecorder("test")
	for i := 1; i <= 5; i++ {
		rec.Record(Span{Trace: TraceID(i), Name: fmt.Sprintf("s%d", i)})
	}
	got := rec.Spans()
	if len(got) != 5 || got[0].Name != "s5" || got[4].Name != "s1" {
		t.Fatalf("Spans() order = %+v", got)
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Span("nop", time.Now()) // must not panic
	if tr.TraceID() != 0 {
		t.Fatal("nil trace has a nonzero id")
	}
	var rec *Recorder
	rec.Record(Span{Trace: 1}) // must not panic
	if rec.Start(1) != nil {
		t.Fatal("nil recorder started a trace")
	}
}

func TestTracezHandler(t *testing.T) {
	o := NewObservability("widget")
	tr := o.Traces.Start(0xabc)
	tr.Span("hop", time.Now(), A("key", "val"), AInt("n", 3))

	req := httptest.NewRequest("GET", "/debug/tracez", nil)
	w := httptest.NewRecorder()
	o.Traces.Handler().ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{`"component":"widget"`, `"name":"hop"`, `"0000000000000abc"`, `"k":"key"`, `"v":"3"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("tracez missing %q:\n%s", want, body)
		}
	}

	req = httptest.NewRequest("GET", "/metrics", nil)
	w = httptest.NewRecorder()
	o.Metrics.Handler().ServeHTTP(w, req)
	mbody := w.Body.String()
	for _, want := range []string{`geoserve_component_info{component="widget"} 1`, "geoserve_trace_spans_total 1"} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody)
		}
	}
}
