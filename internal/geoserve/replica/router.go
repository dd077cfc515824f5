package replica

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/obs"
)

// RouterConfig names the fleet and the tunables of the request path.
type RouterConfig struct {
	// Replicas are the replica base URLs (no trailing slash).
	Replicas []string
	// Client performs probes and forwards; nil means http.DefaultClient.
	Client *http.Client
	// FailThreshold is how many consecutive failures eject a replica
	// (default 2). Ejected replicas are probed and readmitted on the
	// first healthy answer.
	FailThreshold int
	// RequestTimeout bounds one forwarded attempt — a replica that
	// stalls past it is treated as failed and the request moves on
	// (default 5s).
	RequestTimeout time.Duration
	// RetryBudget caps the global retry token pool (default 16; negative
	// means none). Every retry spends a whole token, every success earns
	// a tenth back, so under sustained failure at most ~10% of traffic
	// is retried and a retry storm can't amplify an outage.
	RetryBudget int
	// BreakerThreshold is how many consecutive request failures open a
	// member's circuit breaker (default 3); while open the member gets
	// no traffic even if probes still like it.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker excludes its member
	// before a single half-open trial request may close it again
	// (default 5s).
	BreakerCooldown time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 16
	}
	c.RetryBudget = max(c.RetryBudget, 0)
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// probeInterval is the health-probe cadence under Run; probeTimeout
// bounds one probe. Like a shed's Retry-After of 1 s they are not
// options: no deployment or test needs another value.
const (
	probeInterval = time.Second
	probeTimeout  = 2 * time.Second
)

// member is the router's view of one replica. Every field but url is
// guarded by Router.mu; probed, pick and settle are the only writers.
type member struct {
	url     string
	healthy bool
	// admitted means the member has been healthy at least once, so a
	// later recovery counts as a readmission rather than first contact.
	admitted     bool
	epoch        uint64
	digest       string
	consecFails  int
	requests     uint64
	failures     uint64
	ejections    uint64
	readmissions uint64
	// inflight and ewmaMs are what pick chooses by: inflight counts the
	// attempts pick has handed out against the member and settle has not
	// yet taken back, ewmaMs smooths its served replies' latency.
	inflight int
	ewmaMs   float64
	ewmaSet  bool
	// breakerFails counts consecutive request failures (probes don't
	// touch it); at BreakerThreshold the breaker opens and
	// breakerOpenSince records when. Zero time means closed.
	breakerFails     int
	breakerOpenSince time.Time
	breakerTrips     uint64
}

// Router fans geoserve lookups over a fleet of replicas. It sends
// every request whole — a single lookup, a JSON batch, a binary frame —
// to one replica at the plan epoch (the highest epoch a routable member
// holds). That replica answers it from one snapshot and its X-Geo-Epoch
// is relayed, so no answer set can blend snapshots. A retry plans
// again over the members the request has not tried, so when the only
// member at the plan epoch fails, the retry steps back to the newest
// epoch left, typically one behind. That is no weaker than ejection:
// once the failed member is ejected every request plans at that epoch
// anyway, and the retry still sends the request whole to one replica.
// When no routable replica holds a complete epoch the router sheds
// with 503 + Retry-After rather than degrade silently.
//
// One forwarded attempt is two critical sections on mu: pick decides
// where it goes (plan epoch, member, retry token, outstanding count)
// and settle, once it has run under RequestTimeout, records what it
// showed (latency, breaker, ejection, budget refund, epoch). Each being
// one step, a half-open member has at most one request outstanding and
// a retry token is spent in the same step that chooses the retry's
// member. probed, the third writer, applies a /healthz result: probes
// alone readmit an ejected member, while the per-member breaker takes
// traffic from a replica that answers probes but fails requests.
//
// Members start unprobed (unhealthy); call Run or ProbeOnce before
// serving.
type Router struct {
	cfg     RouterConfig
	members []*member

	// mu guards every member's fields and the four below.
	mu sync.Mutex
	// rr rotates pick's starting point among equally loaded members.
	rr uint64
	// budgetTenths holds the retry budget in tenths of a token; it
	// starts full so a cold router retries freely.
	budgetTenths int64
	budgetDenied uint64
	retries      uint64

	draining atomic.Bool
	inflight atomic.Int64

	requests atomic.Uint64
	sheds    atomic.Uint64
	start    time.Time
	// now is stubbed in tests (breaker cooldowns).
	now func() time.Time
	obs *obs.Observability
}

// NewRouter builds a router over the configured replica URLs.
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	r := &Router{cfg: cfg, start: time.Now(), now: time.Now, obs: obs.NewObservability("router"),
		budgetTenths: int64(cfg.RetryBudget) * 10}
	for _, u := range cfg.Replicas {
		r.members = append(r.members, &member{url: u})
	}
	r.obs.Metrics.Collect(r.collect)
	return r
}

// Obs exposes the router's observability bundle so cmd/geoserved can
// mount the same registry and trace ring on a debug listener.
func (r *Router) Obs() *obs.Observability { return r.obs }

// breakerGauge is geoserve_router_replica_breaker_state's encoding of
// RouterReplica.BreakerState.
var breakerGauge = map[string]float64{"closed": 0, "half-open": 1, "open": 2}

// collect is the router's collector: one Status — one r.mu acquisition
// — emitted as the fleet-view families: request and retry-budget
// counters, the plan (epoch, healthy members), and a per-member section
// labeled by replica URL.
func (r *Router) collect(e *obs.Emitter) {
	st := r.Status()
	e.Counter("geoserve_router_requests_total", "Requests forwarded (single lookups and misc paths).", nil, st.Requests)
	e.Counter("geoserve_router_retries_total", "Retry tokens spent.", nil, st.Retries)
	e.Counter("geoserve_router_sheds_total", "Requests shed with 503 because no plan existed.", nil, st.Sheds)
	e.Counter("geoserve_router_budget_denied_total", "Retries refused because the token budget ran dry.", nil, st.BudgetDenied)
	e.Gauge("geoserve_router_retry_budget", "Retry tokens left in the global pool.", nil, st.RetryBudget)
	e.Gauge("geoserve_router_plan_epoch", "The epoch the router currently routes to (0 = no plan).", nil, float64(st.Epoch))
	e.Gauge("geoserve_router_healthy_replicas", "Routable members holding the plan epoch.", nil, float64(st.HealthyReplicas))
	e.Gauge("geoserve_router_draining", "1 after Drain is called.", nil, b2f(st.Draining))
	e.Gauge("geoserve_router_inflight", "Requests the router is currently serving.", nil, float64(st.InFlight))
	for _, m := range st.Replicas {
		labels := obs.Labels{{Key: "replica", Value: m.URL}}
		e.Gauge("geoserve_router_replica_healthy", "1 while the member passes health probes.", labels, b2f(m.Healthy))
		e.Gauge("geoserve_router_replica_inflight", "Forwards currently outstanding against the member.", labels, float64(m.InFlight))
		e.Gauge("geoserve_router_replica_latency_ewma_ms", "Smoothed observed response latency.", labels, m.LatencyMsEWMA)
		e.Gauge("geoserve_router_replica_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open.", labels, breakerGauge[m.BreakerState])
		e.Gauge("geoserve_router_replica_epoch", "The epoch the member last reported.", labels, float64(m.Epoch))
		e.Counter("geoserve_router_replica_requests_total", "Requests the member served.", labels, m.Requests)
		e.Counter("geoserve_router_replica_failures_total", "Probe and request failures against the member.", labels, m.Failures)
		e.Counter("geoserve_router_replica_ejections_total", "Times the member was ejected from the plan.", labels, m.Ejections)
		e.Counter("geoserve_router_replica_readmissions_total", "Times the member recovered into the plan.", labels, m.Readmissions)
		e.Counter("geoserve_router_replica_breaker_trips_total", "Times the member's circuit breaker opened.", labels, m.BreakerTrips)
	}
}

// ensureTrace is the edge mint: it adopts the request's X-Geo-Trace ID
// or mints a fresh one, writing it back onto the request headers so
// every downstream hop (forward clones them) carries the same ID.
func (r *Router) ensureTrace(req *http.Request) *obs.Trace {
	id, ok := obs.ParseTraceID(req.Header.Get(obs.TraceHeader))
	if !ok {
		id = obs.NewTraceID()
		req.Header.Set(obs.TraceHeader, id.String())
	}
	return r.obs.Traces.Start(id)
}

// Drain flips the router into its draining state: /healthz starts
// failing so upstream balancers stop sending work, while requests
// already here (or racing in) are still served normally.
func (r *Router) Drain() { r.draining.Store(true) }

// Run probes the fleet once immediately, then on every probeInterval
// tick, until ctx ends.
func (r *Router) Run(ctx context.Context) error {
	r.ProbeOnce(ctx)
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			r.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce health-checks every member concurrently and applies
// ejection/readmission.
func (r *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range r.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.probe(ctx, m)
		}()
	}
	wg.Wait()
}

func (r *Router) probe(ctx context.Context, m *member) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	var body healthzBody
	ok := false
	if req, err := http.NewRequestWithContext(ctx, "GET", m.url+"/healthz", nil); err == nil {
		if resp, err := r.cfg.Client.Do(req); err == nil {
			ok = resp.StatusCode == http.StatusOK &&
				json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body) == nil &&
				body.Epoch != 0
			resp.Body.Close()
		}
	}
	r.probed(m, body.Epoch, body.Digest, ok)
}

// probed applies one probe result. A healthy one refreshes the epoch
// and is the only thing that readmits an ejected member; a failed one
// counts toward ejection.
func (r *Router) probed(m *member, epoch uint64, digest string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !ok {
		r.failedLocked(m)
		return
	}
	m.consecFails = 0
	m.epoch = epoch
	if digest != "" {
		m.digest = digest
	}
	if !m.healthy {
		m.healthy = true
		if m.admitted {
			m.readmissions++
		}
	}
	m.admitted = true
}

// failedLocked counts a failed probe or attempt and ejects the member
// at FailThreshold consecutive ones.
func (r *Router) failedLocked(m *member) {
	m.failures++
	m.consecFails++
	if m.healthy && m.consecFails >= r.cfg.FailThreshold {
		m.healthy = false
		m.ejections++
	}
}

// breakerStateLocked derives the member's breaker state from its
// opened-at stamp and the cooldown.
func (r *Router) breakerStateLocked(m *member) string {
	switch {
	case m.breakerOpenSince.IsZero():
		return "closed"
	case r.now().Sub(m.breakerOpenSince) < r.cfg.BreakerCooldown:
		return "open"
	default:
		return "half-open"
	}
}

// routableLocked reports whether the member may receive traffic:
// probe-healthy, breaker not open, and — in the half-open state — only
// as the single trial (no other request outstanding).
func (r *Router) routableLocked(m *member) bool {
	if !m.healthy {
		return false
	}
	state := r.breakerStateLocked(m)
	return state == "closed" || state == "half-open" && m.inflight == 0
}

// planLocked is the serving epoch — the highest epoch any routable
// member not in tried holds — and how many such members hold it. Zero
// members means the router must shed.
func (r *Router) planLocked(tried []*member) (epoch uint64, n int) {
	for _, m := range r.members {
		switch {
		case m.epoch == 0 || m.epoch < epoch || !r.routableLocked(m) || slices.Contains(tried, m):
		case m.epoch > epoch:
			epoch, n = m.epoch, 1
		default:
			n++
		}
	}
	return epoch, n
}

// pick chooses the attempt's member and counts the call outstanding
// against it in one step, so the next pick sees this one — a half-open
// member's single trial and least-outstanding's counts are exact. It
// plans over the members this request has not tried, and of those at
// the plan epoch takes the fewest outstanding, then the lowest latency
// EWMA, then the first after a rotating starting point, so equally
// loaded members share traffic round-robin instead of piling onto the
// first. A retry (tried non-empty) spends one budget token, and only
// once there is a member to retry on. nil means shed: no plan, nobody
// left to try, or a dry budget — the caller must give up rather than
// amplify.
func (r *Router) pick(tried []*member) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch, n := r.planLocked(tried)
	if n == 0 {
		return nil
	}
	// A member's rank is how far past the rotation's starting point it
	// sits among the plan's members.
	start, pos := int(r.rr%uint64(n)), 0
	r.rr++
	var best *member
	var bestRank int
	for _, m := range r.members {
		if m.epoch != epoch || !r.routableLocked(m) || slices.Contains(tried, m) {
			continue
		}
		rank := (pos - start + n) % n
		pos++
		if best == nil || cmp.Or(
			cmp.Compare(m.inflight, best.inflight), cmp.Compare(m.ewmaMs, best.ewmaMs), rank-bestRank) < 0 {
			best, bestRank = m, rank
		}
	}
	if len(tried) > 0 {
		if r.budgetTenths < 10 {
			r.budgetDenied++
			return nil
		}
		r.budgetTenths -= 10
		r.retries++
	}
	best.inflight++
	return best
}

// settle takes the call back and records what the attempt showed.
// resp is the served reply, nil for a failed attempt, which advances
// the breaker (tripping it at BreakerThreshold, or re-arming the
// cooldown when a half-open trial fails) and counts toward ejection.
//
// A served reply folds its latency into the EWMA, closes the breaker,
// refunds a tenth of a retry token and advances the member's epoch
// from the reply's headers. It does not readmit — only probes do that,
// so one lucky response can't bounce a flapping member back in ahead of
// its health check. It never lowers the epoch: a reply the replica
// gave just before its swap can arrive after the probe that saw the
// new epoch, and noting the old one would starve the replica of
// traffic until the next probe.
func (r *Router) settle(m *member, d time.Duration, resp *http.Response) {
	var epoch uint64
	if resp != nil {
		epoch, _ = strconv.ParseUint(resp.Header.Get("X-Geo-Epoch"), 10, 64)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m.inflight--
	if resp == nil {
		m.breakerFails++
		if m.breakerOpenSince.IsZero() {
			if m.breakerFails >= r.cfg.BreakerThreshold {
				m.breakerOpenSince = r.now()
				m.breakerTrips++
			}
		} else {
			// A failed half-open trial re-arms the cooldown in full.
			m.breakerOpenSince = r.now()
		}
		r.failedLocked(m)
		return
	}
	if ms := float64(d) / float64(time.Millisecond); m.ewmaSet {
		m.ewmaMs = 0.8*m.ewmaMs + 0.2*ms
	} else {
		m.ewmaMs, m.ewmaSet = ms, true
	}
	m.breakerFails = 0
	m.breakerOpenSince = time.Time{}
	m.requests++
	m.consecFails = 0
	if r.budgetTenths < int64(r.cfg.RetryBudget)*10 {
		r.budgetTenths++
	}
	if epoch > 0 && epoch >= m.epoch {
		m.epoch = epoch
		if d := resp.Header.Get("X-Geo-Digest"); d != "" {
			m.digest = d
		}
	}
}

// shed refuses the request with 503 + Retry-After. The body quotes the
// originating trace ID so a shed client can hand operators the exact
// request to look up in /debug/tracez.
func (r *Router) shed(w http.ResponseWriter, tr *obs.Trace) {
	r.sheds.Add(1)
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	body := struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id,omitempty"`
	}{Error: "no healthy replica holds a complete epoch"}
	if id := tr.TraceID(); id != 0 {
		body.TraceID = id.String()
	}
	json.NewEncoder(w).Encode(body)
}

// Handler serves the geoserve API by delegation: every route but the
// router's own /statusz, /healthz, /metrics and /debug/tracez forwards
// to the least-loaded replica at the plan epoch (retrying others under
// the budget), so request validation and reply bytes are the replica's.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		st := r.Status()
		body := struct {
			Status          string `json:"status"`
			Epoch           uint64 `json:"epoch"`
			HealthyReplicas int    `json:"healthy_replicas"`
		}{"ok", st.Epoch, st.HealthyReplicas}
		switch {
		case st.Draining:
			body.Status = "draining"
			w.WriteHeader(http.StatusServiceUnavailable)
		case st.HealthyReplicas == 0:
			body.Status = "degraded"
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, body)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		r.inflight.Add(1)
		defer r.inflight.Add(-1)
		tr := r.ensureTrace(req)
		w.Header().Set(obs.TraceHeader, tr.TraceID().String())
		r.forward(w, req, tr)
	})
	r.obs.Mount(mux)
	return mux
}

// maxBody caps the bytes the router buffers per direction. A reply
// buffer past maxPooledBody is not pooled, so one huge reply pins no
// memory, and no more is allocated on a peer's declared length alone.
const (
	maxBody       = 64 << 20
	maxPooledBody = 1 << 20
)

// replyPool recycles forwardOnce's reply buffers.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads r to EOF into buf's capacity, first making room for
// the declared length plus the byte that lets EOF arrive without a
// regrow (never under 512); with none declared append grows it.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	if need := min(max(declared, 511), maxPooledBody) + 1; int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	return geoserve.ReadAllInto(buf[:0], r)
}

// readReply buffers a replica's whole body into buf. It fails for a
// body that must not be relayed: a read error (a reset, a stall past
// the deadline), a length other than the one the Content-Length header
// declared (a clean EOF mid-body), or one that reached maxBody.
func readReply(buf []byte, method string, resp *http.Response) ([]byte, error) {
	declared, err := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
	if err != nil || method == http.MethodHead {
		declared = -1
	}
	body, err := readBody(buf, io.LimitReader(resp.Body, maxBody), declared)
	if err == nil && (len(body) == maxBody || declared >= 0 && int64(len(body)) != declared) {
		err = fmt.Errorf("body ends at %d bytes: %d declared, %d the cap", len(body), declared, maxBody)
	}
	return body, err
}

// forward proxies one request to the replica pick chooses, and on
// transport failure, timeout, replica-side 5xx or a short body to the
// next one it chooses — each member at most once, for as long as the
// retry budget holds. A request that cannot be read whole is refused
// before any replica is contacted.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, tr *obs.Trace) {
	r.requests.Add(1)
	// Sized once but never reused: the transport may still be reading
	// these bytes after Do returns (a replica answering mid-upload).
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		var err error
		body, err = readBody(nil, http.MaxBytesReader(w, req.Body, maxBody), req.ContentLength)
		if err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			httpJSONError(w, code, "reading body: %v", err)
			return
		}
	}
	// A member that failed this request is not asked again: one failure
	// leaves it routable, and a low latency EWMA would rank it first.
	// Every pass adds one, so the loop ends within len(r.members).
	var tried []*member
	for m := r.pick(tried); m != nil; m = r.pick(tried) {
		if r.forwardOnce(w, req, m, body, tr) {
			return
		}
		tried = append(tried, m)
	}
	r.shed(w, tr)
}

// forwardOnce runs the attempt pick counted against m under the
// per-request deadline and settles it, exactly once on every path.
// false means "retry elsewhere".
func (r *Router) forwardOnce(w http.ResponseWriter, req *http.Request, m *member, body []byte, tr *obs.Trace) bool {
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	t0 := time.Now()
	out, err := http.NewRequestWithContext(ctx, req.Method, m.url+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		// Only the member's URL differs between attempts, so a request
		// that cannot be built for it is this member's failure.
		r.settle(m, 0, nil)
		tr.Span("router.forward", t0, obs.A("replica", m.url), obs.A("outcome", "bad-url"))
		return false
	}
	// The clone carries X-Geo-Trace: ensureTrace stamped it onto the
	// incoming request, so the replica joins the same trace.
	out.Header = req.Header.Clone()
	resp, err := r.cfg.Client.Do(out)
	if err != nil {
		r.settle(m, 0, nil)
		tr.Span("router.forward", t0, obs.A("replica", m.url), obs.A("outcome", "transport-error"))
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		r.settle(m, 0, nil)
		tr.Span("router.forward", t0, obs.A("replica", m.url), obs.AInt("status", resp.StatusCode), obs.A("outcome", "retry"))
		return false
	}
	// Buffer the whole body before declaring success: a replica that
	// returned headers and then stalled, reset or ended mid-body is a
	// failed attempt to retry elsewhere, never a truncated answer
	// passed to the client. The buffer is pooled and sized from the
	// declared length, so holding the reply back costs one copy of it.
	buf := replyPool.Get().(*[]byte)
	respBody, err := readReply(*buf, req.Method, resp)
	if *buf = respBody[:0]; cap(*buf) <= maxPooledBody {
		defer replyPool.Put(buf)
	}
	if err != nil {
		r.settle(m, 0, nil)
		tr.Span("router.forward", t0, obs.A("replica", m.url), obs.A("outcome", "truncated"))
		return false
	}
	r.settle(m, time.Since(t0), resp)
	tr.Span("router.forward", t0, obs.A("replica", m.url), obs.AInt("status", resp.StatusCode))
	copyResponse(w, resp, respBody)
	return true
}

func copyResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "X-Geo-Epoch", "X-Geo-Digest"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// RouterReplica is one member's row in the router's /statusz.
type RouterReplica struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	Epoch        uint64 `json:"epoch"`
	Digest       string `json:"digest,omitempty"`
	ConsecFails  int    `json:"consec_fails"`
	Requests     uint64 `json:"requests"`
	Failures     uint64 `json:"failures"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
	// InFlight and LatencyMsEWMA are the load signals behind
	// least-outstanding routing.
	InFlight      int     `json:"in_flight"`
	LatencyMsEWMA float64 `json:"latency_ms_ewma"`
	// BreakerState is "closed", "open", or "half-open".
	BreakerState string `json:"breaker_state"`
	BreakerTrips uint64 `json:"breaker_trips"`
}

// RouterStatus is the router's /statusz shape.
type RouterStatus struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Epoch           uint64  `json:"epoch"`
	HealthyReplicas int     `json:"healthy_replicas"`
	Draining        bool    `json:"draining"`
	InFlight        int64   `json:"in_flight"`
	Requests        uint64  `json:"requests"`
	Retries         uint64  `json:"retries"`
	Sheds           uint64  `json:"sheds"`
	// RetryBudget is the tokens left in the global retry pool;
	// BudgetDenied counts retries refused because it ran dry.
	RetryBudget  float64         `json:"retry_budget"`
	BudgetDenied uint64          `json:"budget_denied"`
	Replicas     []RouterReplica `json:"replicas"`
}

// Status snapshots the router's fleet view and counters.
func (r *Router) Status() RouterStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch, n := r.planLocked(nil)
	st := RouterStatus{
		UptimeSeconds:   time.Since(r.start).Seconds(),
		Epoch:           epoch,
		HealthyReplicas: n,
		Draining:        r.draining.Load(),
		InFlight:        r.inflight.Load(),
		Requests:        r.requests.Load(),
		Retries:         r.retries,
		Sheds:           r.sheds.Load(),
		RetryBudget:     float64(r.budgetTenths) / 10,
		BudgetDenied:    r.budgetDenied,
	}
	for _, m := range r.members {
		st.Replicas = append(st.Replicas, RouterReplica{
			URL:           m.url,
			Healthy:       m.healthy,
			Epoch:         m.epoch,
			Digest:        m.digest,
			ConsecFails:   m.consecFails,
			Requests:      m.requests,
			Failures:      m.failures,
			Ejections:     m.ejections,
			Readmissions:  m.readmissions,
			InFlight:      m.inflight,
			LatencyMsEWMA: m.ewmaMs,
			BreakerState:  r.breakerStateLocked(m),
			BreakerTrips:  m.breakerTrips,
		})
	}
	return st
}
