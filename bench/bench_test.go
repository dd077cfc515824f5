package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"geonet/internal/rng"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// near reports whether got is within tol (a share) of want.
func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

// timedStub is a stub whose latency and failures are scripted per
// request (counted from 0). It notes, server side, when each request
// was answered, with what status and after how long in the handler:
// the ground truth the load generator's report is held against.
type timedStub struct {
	stub
	delay   func(n int) time.Duration
	fail    func(n int) bool
	mu      sync.Mutex
	n       int
	replies []stubReply
}

type stubReply struct {
	at     time.Time
	dur    time.Duration
	status int
}

func (s *timedStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mu.Lock()
	n := s.n
	s.n++
	s.mu.Unlock()
	time.Sleep(s.delay(n))
	status := http.StatusOK
	if s.fail(n) {
		status = http.StatusInternalServerError
		io.Copy(io.Discard, r.Body)
		http.Error(w, "scripted failure", status)
	} else {
		s.stub.ServeHTTP(w, r)
	}
	end := time.Now()
	s.mu.Lock()
	s.replies = append(s.replies, stubReply{end, end.Sub(start), status})
	s.mu.Unlock()
}

// stubClients opens n connections that GET the stub and expect its
// canned reply.
func stubClients(t *testing.T, addr string, n int, want []byte) []client {
	t.Helper()
	var cs []client
	for i := 0; i < n; i++ {
		conn, err := dialHTTP(addr, time.Now().Add(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.close)
		cs = append(cs, client{
			do: func(int) (int, error) {
				if err := conn.roundTrip([]byte("GET /x HTTP/1.1\r\nHost: bench\r\n\r\n")); err != nil {
					return 0, err
				}
				if !bytes.Equal(conn.body, want) {
					return 0, fmt.Errorf("reply %q, want %q", conn.body, want)
				}
				return 1, nil
			},
			verify: func() error { return nil },
		})
	}
	return cs
}

// TestLoadGeneratorAgainstStub validates the instrument: against a
// server whose latency distribution and failures are scripted, the
// window the generator reports must agree with what the server saw.
// The delays are long enough that loopback and wake-up (~0.1 ms) stay
// inside the 5 % asked of the latency.
func TestLoadGeneratorAgainstStub(t *testing.T) {
	const (
		base  = 5 * time.Millisecond
		slow  = 15 * time.Millisecond
		limit = 10 * time.Millisecond
		conns = 2
	)
	// Every reply after 5 ms; one in a hundred after 15 ms; one in a
	// hundred a 500.
	st := &timedStub{stub: stub{reply: []byte("canned reply\n"), contentType: "text/plain", epoch: 1}}
	st.delay = func(n int) time.Duration {
		if n%100 == 53 {
			return slow
		}
		return base
	}
	st.fail = func(n int) bool { return n%100 == 7 }
	ln, err := listen(st)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.close()

	warm, length := 200*time.Millisecond, 3*time.Second
	t0 := time.Now()
	win := measure(&workload{name: "stub", limit: limit}, stubClients(t, ln.addr, conns, st.reply), nil, warm, length, nil)

	// Ground truth from the server's side of the same window: what it
	// answered, how long its handler took, and its own rate per slice.
	var (
		ok, failed int
		durs       []float64
		perSlice   = make([]float64, int(length/sliceLen))
	)
	from, to := t0.Add(warm), t0.Add(warm+length)
	st.mu.Lock()
	for _, r := range st.replies {
		if r.at.Before(from) || !r.at.Before(to) {
			continue
		}
		if r.status == 200 {
			ok++
			durs = append(durs, us(r.dur))
			perSlice[int(r.at.Sub(from)/sliceLen)] += 1 / sliceLen.Seconds()
		} else {
			failed++
		}
	}
	st.mu.Unlock()
	slices.Sort(durs)

	counted := 0.0
	for _, s := range win.slices {
		counted += s.lookups
	}
	if !near(counted, float64(ok), 0.02) {
		t.Errorf("the slices hold %.1f lookups, the server answered %d", counted, ok)
	}
	if got, want := overSlices(win.slices, sliceStat.lookupsPerS).Value, median(perSlice); !near(got, want, 0.05) {
		t.Errorf("lookups_per_s = %.1f, the server's median slice answered %.1f/s", got, want)
	}
	if got, want := overSlices(win.slices, func(s sliceStat) float64 { return s.p50us }).Value, quantile(durs, 0.5); !near(got, want, 0.05) && !raceEnabled {
		t.Errorf("req_p50_us = %.1f, server-side p50 = %.1f", got, want)
	}
	if got := win.whole.withinFrac(); !near(got, 0.98, 0.05) {
		t.Errorf("within_limit_frac = %.4f, scripted 0.98", got)
	}
	reqs, lost := 0, 0
	for _, s := range win.slices {
		reqs += s.reqs
		lost += s.failed
	}
	if got, want := float64(lost)/float64(reqs), float64(failed)/float64(ok+failed); !near(got, want, 0.05) || !near(got, 0.01, 0.2) {
		t.Errorf("failed_frac = %.5f, server failed %.5f, scripted 0.01", got, want)
	}
	if win.failed == 0 || len(win.errs) == 0 || !strings.Contains(win.errs[0], "status 500") {
		t.Errorf("failures not reported: %d failed, errors %q", win.failed, win.errs)
	}
}

func TestSliceArithmetic(t *testing.T) {
	msec := time.Millisecond
	// Two clients, window [100 ms, 400 ms) in three 100 ms slices.
	clients := [][]sample{
		{
			{end: 50 * msec, dur: msec, lookups: 10, ok: true},  // warm-up: dropped
			{end: 110 * msec, dur: msec, lookups: 10, ok: true}, // slice 0
			{end: 150 * msec, dur: 3 * msec, lookups: 10, ok: true},
			{end: 250 * msec, dur: 9 * msec, lookups: 10, ok: true}, // slice 1, over the limit
			{end: 400 * msec, dur: msec, lookups: 10, ok: true},     // reply past the window: only its lookups count
		},
		{
			{end: 199 * msec, dur: 2 * msec, lookups: 10, ok: true}, // slice 0
			// In flight half in slice 0, half in slice 1, where it counts.
			{end: 205 * msec, dur: 10 * msec, lookups: 10, ok: true},
			{end: 299 * msec, dur: msec, lookups: 0, ok: false}, // slice 1, failed
			{end: 300 * msec, dur: msec, lookups: 10, ok: true}, // slice 2
		},
	}
	got := cutSlices(clients, 100*msec, 100*msec, 3, 5*msec)
	want := []struct {
		reqs, failed, within int
		lookups              float64
		p50us, maxMs         float64
	}{
		{3, 0, 3, 35, 2000, 3},
		{3, 1, 0, 25, 9000, 10},
		{1, 0, 1, 10, 1000, 1},
	}
	for i, w := range want {
		g := got[i]
		if g.reqs != w.reqs || g.failed != w.failed || g.within != w.within || g.lookups != w.lookups || g.p50us != w.p50us || g.maxMs != w.maxMs {
			t.Errorf("slice %d = %+v, want %+v", i, g, w)
		}
	}
	if r := got[0].lookupsPerS(); r != 350 {
		t.Errorf("slice 0 rate = %v, want 350/s", r)
	}
	if f := got[1].withinFrac(); f != 0 {
		t.Errorf("slice 1 within = %v, want 0: a failure and a slow reply both miss the limit", f)
	}

	for _, tc := range []struct {
		xs                  []float64
		med, min, max, sprd float64
		q50, q90, q99, q100 float64
	}{
		{[]float64{5}, 5, 5, 5, 0, 5, 5, 5, 5},
		{[]float64{3, 1, 2}, 2, 1, 3, 1, 2, 3, 3, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4, 0.8, 2, 4, 4, 4},
		{[]float64{10, 30, 20, 50, 40, 60, 70, 80}, 45, 10, 80, 40.0 / 45, 40, 80, 80, 80},
	} {
		s := summarize(tc.xs)
		if s.Value != tc.med || s.Min != tc.min || s.Max != tc.max || !near(s.Spread, tc.sprd, 1e-12) || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v", tc.xs, s)
		}
		sorted := slices.Clone(tc.xs)
		slices.Sort(sorted)
		for q, want := range map[float64]float64{0.5: tc.q50, 0.9: tc.q90, 0.99: tc.q99, 1: tc.q100} {
			if got := quantile(sorted, q); got != want {
				t.Errorf("quantile(%v, %v) = %v, want %v", sorted, q, got, want)
			}
		}
	}

	// Epochs count by when they started; a failed one is not ok and
	// has no time.
	eps := []epochTimes{
		{start: 0, total: 99 * msec, ok: true}, // warm-up
		{start: 100 * msec, total: 10 * msec, ok: true},
		{start: 120 * msec, total: 30 * msec, ok: true},
		{start: 250 * msec, total: 40 * msec, ok: false},
		{start: 300 * msec, total: 5 * msec, err: errors.New("sync failed")},
		{start: 400 * msec, total: 99 * msec, ok: true}, // past the window
	}
	totals, n, ok := epochReport(eps, 100*msec, 400*msec)
	if !slices.Equal(totals, []float64{10, 30, 40}) || n != 4 || ok != 2 {
		t.Errorf("epochReport = %v, %d steps, %d ok", totals, n, ok)
	}
}

func TestPoolsRepeatPerSeed(t *testing.T) {
	prefixes := make([]uint32, 12132)
	for i := range prefixes {
		prefixes[i] = uint32(4<<24) + uint32(i)<<8
	}
	const n = 1 << 16
	for name, draw := range map[string]func(s *rng.Stream) []uint32{
		"uniform": func(s *rng.Stream) []uint32 { return uniformPool(s, prefixes, n) },
		"zipf":    func(s *rng.Stream) []uint32 { return zipfPool(s, prefixes, zipfTheta, n) },
	} {
		a, b := draw(poolStream(7, 0)), draw(poolStream(7, 0))
		if !slices.Equal(a[:1024], b[:1024]) {
			t.Errorf("%s: the same seed and client drew different addresses", name)
		}
		if slices.Equal(a[:1024], draw(poolStream(8, 0))[:1024]) || slices.Equal(a[:1024], draw(poolStream(7, 1))[:1024]) {
			t.Errorf("%s: another seed or client drew the same addresses", name)
		}
	}

	// The ten hottest /24s of the Zipf pool carry the share the
	// distribution gives ranks 1..10.
	var top, all float64
	for k := 1; k <= len(prefixes); k++ {
		p := math.Pow(float64(k), -zipfTheta)
		all += p
		if k <= 10 {
			top += p
		}
	}
	hot := 0
	for _, ip := range zipfPool(poolStream(1, 0), prefixes, zipfTheta, n) {
		if ip&^0xff <= prefixes[9] {
			hot++
		}
	}
	if got, want := float64(hot)/n, top/all; math.Abs(got-want) > 0.02 {
		t.Errorf("top-10 /24 share = %.3f, Zipf(%.1f) over %d prefixes gives %.3f", got, zipfTheta, len(prefixes), want)
	}
}

// TestHTTPConn drives the hand-written client over both reply
// framings and across a failure.
func TestHTTPConn(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 9000) // past the server's buffer: sent chunked
	ln, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch r.URL.Path {
		case "/chunked":
			w.Header().Set("X-Geo-Epoch", "42")
			w.Write(big)
		case "/sized":
			w.Write([]byte("small"))
		default:
			http.Error(w, "no", http.StatusTeapot)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.close()
	conn, err := dialHTTP(ln.addr, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	get := func(path string) error {
		return conn.roundTrip([]byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n"))
	}
	for i := 0; i < 2; i++ {
		if err := get("/chunked"); err != nil || !bytes.Equal(conn.body, big) || conn.epoch != 42 {
			t.Fatalf("chunked reply: err %v, %d bytes, epoch %d", err, len(conn.body), conn.epoch)
		}
		if err := get("/sized"); err != nil || string(conn.body) != "small" || conn.epoch != 0 {
			t.Fatalf("sized reply: err %v, body %q, epoch %d", err, conn.body, conn.epoch)
		}
		if err := get("/missing"); !errors.Is(err, errStatus) {
			t.Fatalf("418 reply: err %v", err)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50, spread float64) *result {
		return &result{
			Fingerprint: fingerprint{CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", GitSHA: "a", WorldScale: 0.1, WorldSeed: 1},
			Workload:    "fleet-json", Seconds: 20, Digest: "d", Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{
				"req_p50_us":    {Value: p50, Unit: "us", Spread: spread},
				"lookups_per_s": {Value: 1000, Unit: "1/s"},
			},
		}
	}
	for _, tc := range []struct {
		name        string
		a, b        *result
		wantFlagged int
	}{
		{"inside the bound", mk(100, 0.01), mk(124, 0.01), 0},
		{"past the bound", mk(100, 0.01), mk(130, 0.01), 1},
		{"past the bound but inside the slice spread", mk(100, 0.01), mk(130, 0.35), 0},
		{"better", mk(100, 0.01), mk(50, 0.01), 0},
	} {
		var out bytes.Buffer
		flagged, err := compare(tc.a, tc.b, false, &out)
		if err != nil || flagged != tc.wantFlagged {
			t.Errorf("%s: flagged %d (err %v), want %d\n%s", tc.name, flagged, err, tc.wantFlagged, out.String())
		}
	}

	other := mk(100, 0.01)
	other.Fingerprint.CPUModel = "another cpu"
	other.Digest = "e"
	var out bytes.Buffer
	if _, err := compare(mk(100, 0.01), other, false, &out); err == nil || !strings.Contains(err.Error(), "cpu_model") {
		t.Errorf("mismatched fingerprints compared: err %v", err)
	}
	if _, err := compare(mk(100, 0.01), other, true, &out); err != nil || !strings.Contains(out.String(), "different snapshots") {
		t.Errorf("-force: err %v, output %q", err, out.String())
	}
	sha := mk(100, 0.01)
	sha.Fingerprint.GitSHA = "b"
	if _, err := compare(mk(100, 0.01), sha, false, &out); err != nil {
		t.Errorf("results of two revisions must compare: %v", err)
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the window the driver asks for. With three set-ups,
// pools, warm-up, drill and go run's link a run takes about 15 s more
// (35 s measured at 20), and the driver's 4 + 22 × 4 runs must end
// within 3420 s, slow stretches of the box included.
const (
	runSeconds  = 15
	runOverhead = 15
)

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package
// (-update rewrites it from them) and to the limits of the contract.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkSpec{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadSpec{w.name, w.why})
	}
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package; go test -run TestBenchmarkJSON -update rewrites it")
	}

	if runs := 4 + 22*len(workloads); runs*(runSeconds+runOverhead) > 3420*85/100 {
		t.Errorf("%d runs of %d+%d s and two builds do not fit 3420 s with 15 %% to spare", runs, runSeconds, runOverhead)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d workloads, %d + %d metrics, %d bytes", len(workloads), len(endToEnd), len(perLayer), len(data))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the contract's limits", w.name)
		}
		seen[w.name] = true
	}
	for i, d := range slices.Concat(endToEnd, perLayer) {
		e2e := i < len(endToEnd)
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != lower && d.Better != higher) ||
			(e2e && (d.Bound <= 0 || d.Bound > 0.25)) || (!e2e && d.Bound != 0) {
			t.Errorf("metric %+v breaks the contract's limits (or repeats a name)", d)
		}
		seen[d.Name] = true
	}
	if i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" }); i < 0 ||
		endToEnd[i].Unit != "s" || endToEnd[i].Better != lower {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// TestSmoke runs every workload, untraced and traced, through the
// command's own entry point: every operation must succeed and every
// declared metric must come out, the end-to-end ones non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := realMain([]string{"-smoke", "-json", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\n%s", code, stderr.String())
	}
	t.Logf("smoke took %v", time.Since(start))
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d", len(lines), 2*len(workloads))
	}
	for i, l := range lines {
		var line contractLine
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		defs := endToEnd
		if i%2 == 1 {
			defs = perLayer
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(defs) {
			t.Errorf("line %d: correct %v, %d of %d failed, %d metrics of %d", i, line.Correct, line.Failed, line.Attempted, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || (i%2 == 0 && m.Value <= 0 && !raceEnabled) {
				t.Errorf("line %d: metric %s = %+v (present %v)", i, d.Name, m, ok)
			}
		}
		if i%2 == 1 {
			if v := line.Metrics["obs.lookup_count_agreement"].Value; v != 1 {
				t.Errorf("line %d: served lookups / sent lookups = %v, want exactly 1", i, v)
			}
		}
	}
}
