package obs

import (
	"net/http/httptest"
	"testing"
	"time"
)

// TestHotPathZeroAlloc pins that the primitives the serving hot path
// touches on every request — counter increments, histogram records,
// and the trace probe on an untraced request — allocate nothing. The
// bench/ ladder's allocation rungs and geoserve's zeroalloc tests hold
// the end-to-end line; this test localizes a regression to the obs
// layer itself.
func TestHotPathZeroAlloc(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Errorf("Counter.Inc/Add: %v allocs/op, want 0", n)
	}

	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.RecordN(123*time.Microsecond, 1) }); n != 0 {
		t.Errorf("Histogram.Record: %v allocs/op, want 0", n)
	}

	rec := NewRecorder("test")
	req := httptest.NewRequest("GET", "/v1/locate?ip=10.0.0.1", nil)
	if n := testing.AllocsPerRun(1000, func() {
		if tr := TraceFromRequest(req, rec); tr != nil {
			t.Fatal("untraced request produced a trace handle")
		}
	}); n != 0 {
		t.Errorf("TraceFromRequest (no header): %v allocs/op, want 0", n)
	}

	// Nil-safe no-ops on the untraced path must also stay free.
	var nilTrace *Trace
	if n := testing.AllocsPerRun(1000, func() {
		if nilTrace.TraceID() != 0 {
			t.Fatal("nil trace has an ID")
		}
	}); n != 0 {
		t.Errorf("nil Trace.TraceID: %v allocs/op, want 0", n)
	}
}
