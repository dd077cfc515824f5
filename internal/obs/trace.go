package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace ID across hops: minted at the
// edge (router or geoserved), echoed into responses, and propagated on
// every router→replica and coordinator→shard forward.
const TraceHeader = "X-Geo-Trace"

// TraceID is a compact per-request identifier, rendered as 16 hex
// digits. Zero means "not traced".
type TraceID uint64

// String renders the ID as fixed-width lowercase hex.
func (t TraceID) String() string {
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		b[i] = hexdigits[(uint64(t)>>(60-4*i))&0xf]
	}
	return string(b[:])
}

// ParseTraceID parses a hex trace ID (1–16 digits); ok=false for an
// empty, malformed or zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	return TraceID(v), v != 0
}

// traceSeq seeds NewTraceID; the splitmix64 finalizer turns the
// sequence into well-spread IDs without a lock or a global rand.
var traceSeq atomic.Uint64

func init() { traceSeq.Store(uint64(time.Now().UnixNano())) }

// NewTraceID mints a nonzero trace ID.
func NewTraceID() TraceID {
	for {
		x := traceSeq.Add(0x9E3779B97F4A7C15)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		if x != 0 {
			return TraceID(x)
		}
	}
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{key, value} }

// AInt builds an integer attribute.
func AInt(key string, value int) Attr { return Attr{key, strconv.Itoa(value)} }

// Span is one hop's record of a traced request: where time went in
// this component (admission, batch serve, wire encode, a retry
// decision), tied back to the edge-minted trace ID.
type Span struct {
	Trace    TraceID
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// spanJSON is the tracez wire shape of a Span.
type spanJSON struct {
	Trace      string  `json:"trace"`
	Name       string  `json:"name"`
	Start      string  `json:"start"`
	DurationUs float64 `json:"duration_us"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

func (s Span) json() spanJSON {
	return spanJSON{
		Trace:      s.Trace.String(),
		Name:       s.Name,
		Start:      s.Start.UTC().Format(time.RFC3339Nano),
		DurationUs: float64(s.Duration) / float64(time.Microsecond),
		Attrs:      s.Attrs,
	}
}

// Ring capacities and the slow-span bias threshold.
const (
	recentSpanCap = 256
	slowSpanCap   = 64
	// DefaultSlowSpan is the duration at which a span also enters the
	// slow ring, where it outlives the churnier recent ring.
	DefaultSlowSpan = time.Millisecond
)

// Recorder is a bounded in-memory span store with a slow-request
// retention bias: every span lands in a fixed-size recent ring
// (overwriting oldest), and spans at or over the slow threshold are
// additionally copied into a smaller slow ring that only slow spans
// churn — so a burst of fast traffic cannot evict the evidence of the
// slow request you are hunting. Recording takes one short mutex; it
// only runs for traced requests, never on the untraced hot path.
type Recorder struct {
	component string
	slowNs    int64
	recorded  atomic.Uint64

	mu         sync.Mutex
	recent     [recentSpanCap]Span
	recentLen  int
	recentNext int
	slow       [slowSpanCap]Span
	slowLen    int
	slowNext   int
}

// NewRecorder builds a recorder for one component with the default
// slow threshold.
func NewRecorder(component string) *Recorder {
	r := &Recorder{component: component}
	r.slowNs = int64(DefaultSlowSpan)
	return r
}

// Recorded counts spans ever recorded (including ones since evicted).
func (r *Recorder) Recorded() uint64 { return r.recorded.Load() }

// Record stores one span. Safe on a nil recorder (drops the span), so
// call sites don't need to guard.
func (r *Recorder) Record(s Span) {
	if r == nil || s.Trace == 0 {
		return
	}
	r.recorded.Add(1)
	r.mu.Lock()
	r.recent[r.recentNext] = s
	r.recentNext = (r.recentNext + 1) % recentSpanCap
	if r.recentLen < recentSpanCap {
		r.recentLen++
	}
	if int64(s.Duration) >= r.slowNs {
		r.slow[r.slowNext] = s
		r.slowNext = (r.slowNext + 1) % slowSpanCap
		if r.slowLen < slowSpanCap {
			r.slowLen++
		}
	}
	r.mu.Unlock()
}

// Spans returns the recent ring newest-first.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringNewestFirst(r.recent[:], r.recentLen, r.recentNext)
}

// SlowSpans returns the slow ring newest-first.
func (r *Recorder) SlowSpans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringNewestFirst(r.slow[:], r.slowLen, r.slowNext)
}

func ringNewestFirst(ring []Span, n, next int) []Span {
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ring[(next-1-i+len(ring)*2)%len(ring)])
	}
	return out
}

// Handler serves GET /debug/tracez: the component name, the retention
// policy, and both rings newest-first.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		recent, slow := r.Spans(), r.SlowSpans()
		body := struct {
			Component   string     `json:"component"`
			SlowUs      float64    `json:"slow_threshold_us"`
			RecentCap   int        `json:"recent_cap"`
			SlowCap     int        `json:"slow_cap"`
			SpansTotal  uint64     `json:"spans_total"`
			RecentSpans []spanJSON `json:"recent"`
			SlowSpans   []spanJSON `json:"slow"`
		}{
			Component:   r.component,
			SlowUs:      float64(r.slowNs) / float64(time.Microsecond),
			RecentCap:   recentSpanCap,
			SlowCap:     slowSpanCap,
			SpansTotal:  r.Recorded(),
			RecentSpans: make([]spanJSON, len(recent)),
			SlowSpans:   make([]spanJSON, len(slow)),
		}
		for i, s := range recent {
			body.RecentSpans[i] = s.json()
		}
		for i, s := range slow {
			body.SlowSpans[i] = s.json()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	})
}

// Trace is the per-request handle a traced request threads through its
// hops; nil means "not traced", and every method is nil-safe so call
// sites stay unconditional.
type Trace struct {
	id  TraceID
	rec *Recorder
}

// Start returns a request handle for id, or nil when the recorder is
// nil or the id is zero.
func (r *Recorder) Start(id TraceID) *Trace {
	if r == nil || id == 0 {
		return nil
	}
	return &Trace{id: id, rec: r}
}

// TraceID reports the handle's ID (0 on a nil handle).
func (t *Trace) TraceID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// Span records one completed hop: it stamps the duration as
// time.Since(start) and stores the span.
func (t *Trace) Span(name string, start time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	t.rec.Record(Span{
		Trace:    t.id,
		Name:     name,
		Start:    start,
		Duration: time.Since(start),
		Attrs:    attrs,
	})
}

// TraceFromRequest returns the request's trace handle: nil — at the
// cost of exactly one header lookup — unless the request carries a
// valid X-Geo-Trace header. The untraced hot path stays
// allocation-free.
func TraceFromRequest(req *http.Request, rec *Recorder) *Trace {
	id, ok := ParseTraceID(req.Header.Get(TraceHeader))
	if !ok {
		return nil
	}
	return rec.Start(id)
}
