package replica

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
)

// TestRouterPrefersLeastLoaded pins load-aware planning: a replica
// with a slow response history (high latency EWMA) stops receiving
// traffic while equally-idle faster members exist.
func TestRouterPrefersLeastLoaded(t *testing.T) {
	snap := makeSnapshot(t, 21, 30, 8)
	// rep0 answers queries slowly; probes and the builder stay fast.
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if req.URL.Host == "rep0" && req.URL.Path != "/healthz" {
			return faultinject.Fault{Latency: 30 * time.Millisecond, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := newFleet(t, 3, snap, decide)

	for i := 0; i < 12; i++ {
		if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	st := f.router.Status()
	var slow, fast uint64
	for _, m := range st.Replicas {
		if m.URL == repURL(0) {
			slow = m.Requests
			if m.LatencyMsEWMA < 10 {
				t.Fatalf("rep0 EWMA %.2fms does not reflect its injected latency", m.LatencyMsEWMA)
			}
		} else {
			fast += m.Requests
		}
	}
	// The rotation gives rep0 its first request; after its EWMA spikes
	// it must not be picked again while idle fast members exist.
	if slow > 2 || fast < 10 {
		t.Fatalf("slow replica served %d of 12 requests (fast: %d) — not routed around", slow, fast)
	}
}

// TestRouterRetryBudgetStopsStorm pins the global retry budget: under
// total replica failure the router spends its tokens and then sheds
// immediately instead of hammering the fleet with len(members) retries
// per request.
func TestRouterRetryBudgetStopsStorm(t *testing.T) {
	snap := makeSnapshot(t, 22, 20, 6)
	var down atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if down.Load() && strings.HasPrefix(req.URL.Host, "rep") && req.URL.Path != "/healthz" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.client, f.tr = localClient(mux, decide)
	for i := 0; i < 2; i++ {
		rep := New(Config{BuilderURL: "http://builder", Client: f.client})
		f.replicas = append(f.replicas, rep)
		mux[repURL(i)[len("http://"):]] = rep.Handler()
	}
	// FailThreshold and BreakerThreshold are out of reach so only the
	// budget can stop the retrying.
	f.router = NewRouter(RouterConfig{
		Replicas:         []string{repURL(0), repURL(1)},
		Client:           f.client,
		FailThreshold:    1 << 20,
		BreakerThreshold: 1 << 20,
		RetryBudget:      3,
	})
	mux["router"] = f.router.Handler()
	if _, err := f.pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	f.syncAll(t)
	f.router.ProbeOnce(context.Background())

	down.Store(true)
	for i := 0; i < 10; i++ {
		code, _ := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("request %d during total outage: status %d", i, code)
		}
	}
	st := f.router.Status()
	if st.Retries != 3 {
		t.Fatalf("%d retries spent, want exactly the budget of 3", st.Retries)
	}
	if st.BudgetDenied == 0 || st.RetryBudget >= 1 {
		t.Fatalf("status %+v: want an exhausted budget with denials", st)
	}

	// Recovery: successes earn the budget back a tenth at a time.
	down.Store(false)
	for i := 0; i < 25; i++ {
		if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != 200 {
			t.Fatalf("request %d after recovery: status %d", i, code)
		}
	}
	if st := f.router.Status(); st.RetryBudget < 2 {
		t.Fatalf("budget %.1f after 25 successes, want refill", st.RetryBudget)
	}
}

// TestRouterRetrySkipsFailedMember pins that a retry never goes back to
// the member that just failed this request: after one 500 rep0 is still
// routable (FailThreshold 2, BreakerThreshold 3) and its lower latency
// EWMA sorts it first again.
func TestRouterRetrySkipsFailedMember(t *testing.T) {
	snap := makeSnapshot(t, 25, 20, 6)
	f := newFleetWith(t, 2, snap, nil, RouterConfig{})
	var hits atomic.Int64
	rep0 := f.mux["rep0"]
	f.mux["rep0"] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			rep0.ServeHTTP(w, req)
			return
		}
		hits.Add(1)
		http.Error(w, "broken", http.StatusInternalServerError)
	})
	f.router.mu.Lock()
	f.router.members[0].ewmaMs, f.router.members[0].ewmaSet = 1, true
	f.router.members[1].ewmaMs, f.router.members[1].ewmaSet = 5, true
	f.router.mu.Unlock()

	if code, body := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("%d attempts on the failing replica, want 1", n)
	}
	st := f.router.Status()
	if st.Retries != 1 || st.Replicas[0].Failures != 1 || st.Replicas[1].Requests != 1 {
		t.Errorf("status %+v: want one retry, one failure on rep0, the answer from rep1", st)
	}
}

// TestRouterBreakerOpensAndRecovers pins the per-replica circuit
// breaker: request failures open it (removing the member from the plan
// even though probes still pass), the cooldown moves it to half-open,
// and one successful trial closes it.
func TestRouterBreakerOpensAndRecovers(t *testing.T) {
	snap := makeSnapshot(t, 23, 20, 6)
	var broken atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		// rep0 keeps answering /healthz but fails every query — the
		// failure mode probes can't see and the breaker exists for.
		if broken.Load() && req.URL.Host == "rep0" && req.URL.Path != "/healthz" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := &fleet{pub: NewPublisher()}
	mux := fleetMux{"builder": f.pub.Handler()}
	f.client, f.tr = localClient(mux, decide)
	for i := 0; i < 2; i++ {
		rep := New(Config{BuilderURL: "http://builder", Client: f.client})
		f.replicas = append(f.replicas, rep)
		mux[repURL(i)[len("http://"):]] = rep.Handler()
	}
	f.router = NewRouter(RouterConfig{
		Replicas:         []string{repURL(0), repURL(1)},
		Client:           f.client,
		FailThreshold:    1 << 20, // ejection out of reach: breaker only
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	mux["router"] = f.router.Handler()
	if _, err := f.pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	f.syncAll(t)
	f.router.ProbeOnce(context.Background())
	clock := time.Now()
	f.router.now = func() time.Time { return clock }

	broken.Store(true)
	// Every request still answers (retries cover the rep0 failures)
	// and after two rep0 failures its breaker opens.
	for i := 0; i < 8; i++ {
		if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != 200 {
			t.Fatalf("request %d while rep0 broken: status %d", i, code)
		}
	}
	row := func(url string) RouterReplica {
		for _, m := range f.router.Status().Replicas {
			if m.URL == url {
				return m
			}
		}
		t.Fatalf("no row for %s", url)
		return RouterReplica{}
	}
	r0 := row(repURL(0))
	if r0.BreakerState != "open" || r0.BreakerTrips != 1 || !r0.Healthy {
		t.Fatalf("rep0 row %+v: want an open breaker on a probe-healthy member", r0)
	}
	// With the breaker open, traffic flows without touching rep0.
	before := r0.Failures
	for i := 0; i < 6; i++ {
		if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.2.0.1"); code != 200 {
			t.Fatalf("request %d with open breaker: status %d", i, code)
		}
	}
	if r0 = row(repURL(0)); r0.Failures != before {
		t.Fatalf("rep0 took %d new failures while its breaker was open", r0.Failures-before)
	}

	// Past the cooldown the breaker half-opens; a successful trial
	// closes it and traffic returns.
	broken.Store(false)
	clock = clock.Add(2 * time.Minute)
	if r0 = row(repURL(0)); r0.BreakerState != "half-open" {
		t.Fatalf("rep0 breaker %q after cooldown, want half-open", r0.BreakerState)
	}
	served := row(repURL(0)).Requests
	for i := 0; served == row(repURL(0)).Requests && i < 8; i++ {
		if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.3.0.1"); code != 200 {
			t.Fatalf("trial-phase request %d: status %d", i, code)
		}
	}
	if r0 = row(repURL(0)); r0.BreakerState != "closed" {
		t.Fatalf("rep0 breaker %q after successful trial, want closed", r0.BreakerState)
	}
}

// TestRouterDrain pins the router's draining contract: /healthz fails
// with "draining" while queries keep being answered.
func TestRouterDrain(t *testing.T) {
	snap := makeSnapshot(t, 24, 20, 6)
	f := newFleet(t, 2, snap, nil)
	if code, _ := get(t, f.client, "http://router/healthz"); code != 200 {
		t.Fatalf("healthz before drain: %d", code)
	}
	f.router.Drain()
	code, body := get(t, f.client, "http://router/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("healthz during drain: %d %s", code, body)
	}
	if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != 200 {
		t.Fatalf("query during drain: status %d", code)
	}
	st := f.router.Status()
	if !st.Draining || st.InFlight != 0 {
		t.Fatalf("status %+v", st)
	}
	// Direct single-engine comparison: answers during drain are real.
	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)
	_, want := get(t, dc, "http://direct/v1/locate?ip=10.4.0.200")
	if _, got := get(t, f.client, "http://router/v1/locate?ip=10.4.0.200"); got != want {
		t.Fatalf("drained answer diverges: %q vs %q", got, want)
	}
}

// TestRouterLateReplyKeepsProbedEpoch pins that a served reply never
// lowers the router's note of a replica's epoch: a reply the replica
// gave just before its swap, reaching the router after the probe that
// saw the new epoch, must leave epoch and digest as the probe set them.
func TestRouterLateReplyKeepsProbedEpoch(t *testing.T) {
	snap1 := makeSnapshot(t, 31, 30, 8)
	snap2 := makeSnapshot(t, 32, 30, 8)
	pub := NewPublisher()
	mux := fleetMux{"builder": pub.Handler()}
	client, _ := localClient(mux, nil)
	rep := New(Config{BuilderURL: "http://builder", Client: client})

	// rep0 answers its first /v1/locate from whatever epoch it holds,
	// then keeps the reply back until the test lets it go.
	var gated atomic.Bool
	answered, release := make(chan struct{}), make(chan struct{})
	mux["rep0"] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep.Handler().ServeHTTP(w, req)
		if req.URL.Path == "/v1/locate" && gated.CompareAndSwap(false, true) {
			close(answered)
			<-release
		}
	})
	router := NewRouter(RouterConfig{Replicas: []string{repURL(0)}, Client: client})
	mux["router"] = router.Handler()

	sync := func(snap *geoserve.Snapshot) {
		t.Helper()
		if _, err := pub.Publish(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		router.ProbeOnce(context.Background())
	}
	sync(snap1)

	late := make(chan string, 1)
	go func() {
		resp, err := client.Get("http://router/v1/locate?ip=10.1.0.1")
		if err != nil {
			late <- err.Error()
			return
		}
		resp.Body.Close()
		late <- resp.Header.Get("X-Geo-Epoch")
	}()
	<-answered
	sync(snap2)
	close(release)
	if epoch := <-late; epoch != "1" {
		t.Fatalf("held reply carries epoch %q, want the old epoch 1", epoch)
	}

	st := router.Status()
	if got := st.Replicas[0]; st.Epoch != 2 || got.Epoch != 2 || got.Digest != snap2.Digest() {
		t.Fatalf("after a late epoch-1 reply the router plans on epoch %d and notes replica epoch %d digest %s, want epoch 2 digest %s",
			st.Epoch, got.Epoch, got.Digest, snap2.Digest())
	}
}

// TestRouterHalfOpenAdmitsOneTrial pins the breaker's single-trial
// rule: when a cooldown ends under load, exactly one request reaches
// the half-open member and every other one is shed until the trial
// settles. The replica holds the trial until all 31 others have
// returned, so a second request let through — which takes choosing the
// member and counting the call outstanding to be two critical sections
// — shows as a peak of 2, never as a hang: the hold counts whoever got
// in.
func TestRouterHalfOpenAdmitsOneTrial(t *testing.T) {
	const clients, rounds = 32, 100
	snap := makeSnapshot(t, 26, 20, 6)
	var broken atomic.Bool
	decide := func(_ int, req *http.Request) faultinject.Fault {
		if broken.Load() && req.URL.Host == "rep0" && req.URL.Path != "/healthz" {
			return faultinject.Fault{Drop: true, FlipBit: -1}
		}
		return faultinject.Clean
	}
	f := newFleetWith(t, 1, snap, decide, RouterConfig{
		FailThreshold:    1 << 20, // ejection out of reach: breaker only
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	var clock atomic.Int64
	start := time.Now()
	f.router.now = func() time.Time { return start.Add(time.Duration(clock.Load())) }

	// The wrapper counts concurrent queries on rep0 and holds each one
	// until the round's release.
	var cur, peak atomic.Int64
	entered := make(chan struct{}, clients)
	var release chan struct{}
	rep0 := f.mux["rep0"]
	f.mux["rep0"] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			rep0.ServeHTTP(w, req)
			return
		}
		n := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		entered <- struct{}{}
		<-release
		rep0.ServeHTTP(w, req)
	})

	for round := 0; round < rounds; round++ {
		// Trip the breaker: the only member fails twice, each a shed.
		broken.Store(true)
		for i := 0; i < 2; i++ {
			if code, _ := get(t, f.client, "http://router/v1/locate?ip=10.1.0.1"); code != http.StatusServiceUnavailable {
				t.Fatalf("round %d: tripping request %d: status %d", round, i, code)
			}
		}
		if st := f.router.Status().Replicas[0]; st.BreakerState != "open" {
			t.Fatalf("round %d: breaker %q after two failures, want open", round, st.BreakerState)
		}
		broken.Store(false)
		clock.Add(int64(2 * time.Minute))

		release = make(chan struct{})
		gate := make(chan struct{})
		codes := make(chan int, clients)
		for i := 0; i < clients; i++ {
			go func() {
				<-gate
				resp, err := f.client.Get("http://router/v1/locate?ip=10.1.0.1")
				if err != nil {
					codes <- -1
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
		}
		close(gate)
		// Hold the trial(s) until every other request has returned.
		var shed, served, inside int
		for shed+inside < clients {
			select {
			case code := <-codes:
				if code != http.StatusServiceUnavailable {
					t.Fatalf("round %d: status %d while the trial was still held", round, code)
				}
				shed++
			case <-entered:
				inside++
			}
		}
		close(release)
		for i := 0; i < inside; i++ {
			if code := <-codes; code == http.StatusOK {
				served++
			}
		}
		if p := peak.Load(); p != 1 || inside != 1 || shed != clients-1 || served != 1 {
			t.Fatalf("round %d: %d requests reached the half-open member (peak %d concurrent), %d shed, %d served; want 1 trial, %d shed",
				round, inside, p, shed, served, clients-1)
		}
		if st := f.router.Status().Replicas[0]; st.BreakerState != "closed" || st.InFlight != 0 {
			t.Fatalf("round %d: after the trial succeeded: breaker %q, %d in flight", round, st.BreakerState, st.InFlight)
		}
	}
}
