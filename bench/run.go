package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// options shapes one run. The driver sets workload, seed, seconds and
// trace; the rest changes only for -smoke and the tests.
type options struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	// rounds is how many times the untraced run sets up, warms up and
	// measures, each round a share of seconds; a metric is the mean over
	// the rounds (the traced run makes one).
	rounds int
	warm   time.Duration
	// drill is how many epochs a workload without a churn stream
	// propagates, idle, after each round's window.
	drill  int
	outDir string
}

func defaultOptions(w *workload, seed int64, seconds int, trace bool, outDir string) options {
	o := options{workload: w, seed: seed, seconds: seconds, trace: trace,
		scale: 0.1, rounds: 3, warm: time.Second, drill: 12, outDir: outDir}
	if trace {
		o.rounds, o.warm = 1, 2*time.Second
	}
	return o
}

// result is one run's report; it is what -compare reads.
type result struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Digest      string                 `json:"digest"` // the snapshot served when the run ended
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Errors      []string               `json:"errors,omitempty"`
}

func (r *result) set(name string, s summary) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metricValue{Value: s.Value, Unit: unit, Min: s.Min, Max: s.Max, N: s.N, Spread: s.Spread}
}

func (r *result) setValue(name string, v float64) { r.set(name, summarize([]float64{v})) }

func (r *result) fail(n int64, errs ...string) {
	r.Failed += n
	for _, e := range errs {
		if len(r.Errors) < 16 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// procUsage is what the whole process consumed over a loop.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

type procPoint struct {
	ru syscall.Rusage
	ms runtime.MemStats
}

func procNow() (p procPoint) {
	syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru) // cannot fail with these arguments
	runtime.ReadMemStats(&p.ms)
	return p
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func (p procPoint) since(q procPoint) procUsage {
	return procUsage{
		cpu:        tv(p.ru.Utime) + tv(p.ru.Stime) - tv(q.ru.Utime) - tv(q.ru.Stime),
		allocBytes: p.ms.TotalAlloc - q.ms.TotalAlloc,
		gcCycles:   p.ms.NumGC - q.ms.NumGC,
		gcPause:    time.Duration(p.ms.PauseTotalNs - q.ms.PauseTotalNs),
	}
}

// window is one measured loop: warm-up, then the window cut in slices.
type window struct {
	slices []sliceStat  // sliceLen each: rate and latency
	whole  sliceStat    // the window as one slice: tails, share within the limit
	epochs []epochTimes // every step of the loop, warm-up included
	reqs   int64        // requests of the whole loop
	failed int64
	sent   int64 // lookups carried by the requests that succeeded
	errs   []string
	usage  procUsage
	from   time.Duration // where the window starts inside the loop
	length time.Duration
	// within2ms is the share of the window's requests answered inside
	// 2 ms, whatever the workload's own limit.
	within2ms float64
}

// measure runs the workload's clients (and, for churn-epochs, the paced
// epoch stream beside them) for warm + length, and cuts the window.
func measure(w *workload, clients []client, st *stepper, warm, length time.Duration, tr *tracer) window {
	win := window{from: warm, length: length}
	var wg sync.WaitGroup
	before := procNow()
	t0 := time.Now()
	if w.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.epochs = st.paced(t0, warm+length)
		}()
	}
	load := closedLoop(clients, t0, warm+length, w.every, tr)
	wg.Wait()
	win.usage = procNow().since(before)
	win.errs = load.errs
	for _, samples := range load.samples {
		win.reqs += int64(len(samples))
		for _, sm := range samples {
			if sm.ok {
				win.sent += int64(sm.lookups)
			} else {
				win.failed++
			}
		}
	}
	win.slices = cutSlices(load.samples, win.from, sliceLen, int(length/sliceLen), w.limit)
	win.whole = cutSlices(load.samples, win.from, length, 1, w.limit)[0]
	win.within2ms = cutSlices(load.samples, win.from, length, 1, 2*time.Millisecond)[0].withinFrac()
	return win
}

// epochReport returns the propagation times in ms of the epoch steps
// that started inside [from, to), how many steps there were and how many
// were ok. A failed step is not ok and has no time.
func epochReport(eps []epochTimes, from, to time.Duration) (totals []float64, n, ok int) {
	for _, ep := range eps {
		if ep.start < from || ep.start >= to {
			continue
		}
		n++
		if ep.ok {
			ok++
		}
		if ep.err == nil {
			totals = append(totals, ms(ep.total))
		}
	}
	return totals, n, ok
}

// addEpochLayers records where the epochs' time went.
func addEpochLayers(layers bag, eps []epochTimes) {
	for _, ep := range eps {
		if ep.err != nil {
			continue
		}
		layers.add("churn.next_ms", ms(ep.next))
		layers.add("geoserve.compile_delta_ms", ms(ep.compileDelta))
		layers.add("replica.publish_ms", ms(ep.publish))
		layers.add("replica.sync_delta_ms", ms(ep.sync))
		layers.add("replica.probe_ms", ms(ep.tail))
	}
}

const forever = time.Duration(1<<63 - 1)

func liveHeapMB() float64 {
	// Twice: what only a sync.Pool still holds survives one cycle.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// session is one run: its options, what the current round serves
// from, and the report so far.
type session struct {
	o       options
	w       *workload
	e       *env
	st      *stepper
	clients []client
	res     *result
	tr      *tracer // nil unless traced
	layers  bag     // nil unless traced
}

// run performs one benchmark run, untraced or traced.
func run(o options) (*result, error) {
	s := &session{o: o, w: o.workload, res: &result{
		Fingerprint: newFingerprint(o.scale),
		Workload:    o.workload.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: map[string]metricValue{},
	}}
	defer s.close()
	budget := time.Duration(o.seconds) * time.Second
	var err error
	if o.trace {
		s.tr, s.layers = newTracer(), bag{}
		err = s.traced(budget)
	} else {
		err = s.untraced(budget)
	}
	if err != nil {
		return nil, err
	}
	s.res.finish(s.st.prev.Digest())
	return s.res, nil
}

// open sets up from an empty heap and connects the workload's clients.
func (s *session) open(budget time.Duration) (err error) {
	s.close()
	runtime.GC()
	if s.e, err = setUp(s.o.scale, s.w.fleet || s.o.trace); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if s.clients, err = s.w.newClients(s.e, s.w, s.o.seed, time.Now().Add(s.o.warm+budget+time.Minute)); err != nil {
		return fmt.Errorf("clients: %w", err)
	}
	s.st, err = newStepper(s.e, s.o.seed, s.tr, s.layers, s.o.outDir)
	return err
}

func (s *session) close() {
	closeClients(s.clients)
	s.clients = nil
	if s.e != nil {
		s.e.close()
		s.e = nil
	}
}

// measure runs one window and counts its operations into the result.
func (s *session) measure(length time.Duration, tr *tracer) window {
	win := measure(s.w, s.clients, s.st, s.o.warm, length, tr)
	s.res.Attempted += win.reqs
	s.res.fail(win.failed, win.errs...)
	s.countEpochs(win.epochs)
	return win
}

func (s *session) countEpochs(eps []epochTimes) {
	s.res.Attempted += int64(len(eps))
	for _, ep := range eps {
		if ep.err != nil {
			s.res.fail(1, ep.err.Error())
		}
	}
}

// drill propagates idle epochs for a workload without a churn stream
// (churn-epochs has its own, in the window).
func (s *session) drill() []epochTimes {
	if s.w.churn {
		return nil
	}
	eps := s.st.drill(s.o.drill)
	s.countEpochs(eps)
	return eps
}

// overRounds is a metric over the rounds of one run: the mean of the
// rounds' values, with their extremes and their spread. The box runs
// faster and slower in phases of 5 to 60 s and a round lies inside one
// or two of them, so rounds seconds apart sample several phases; the
// mean moves smoothly where a median over the rounds would report
// whichever phase most of them fell in.
func overRounds(xs []float64) summary {
	s := summarize(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Value = sum / float64(max(len(xs), 1))
	return s
}

// untraced measures the end-to-end metrics in rounds: set-up, warm-up,
// a window of an equal share of the budget, and the idle epoch drill;
// the live heap is read after the last round's window.
func (s *session) untraced(budget time.Duration) error {
	var (
		setups, rate, p50, within, propagate []float64
		epochs, epochsOK                     int
	)
	for round := 0; round < s.o.rounds; round++ {
		if err := s.open(budget); err != nil {
			return err
		}
		win := s.measure(budget/time.Duration(s.o.rounds), nil)
		if round == s.o.rounds-1 {
			s.res.setValue("live_heap_mb", liveHeapMB())
		}
		eps, from, to := win.epochs, win.from, win.from+win.length
		if !s.w.churn {
			eps, from, to = s.drill(), 0, forever
		}
		totals, n, ok := epochReport(eps, from, to)
		setups = append(setups, s.e.times.total.Seconds())
		rate = append(rate, overSlices(win.slices, sliceStat.lookupsPerS).Value)
		p50 = append(p50, overSlices(win.slices, func(s sliceStat) float64 { return s.p50us }).Value)
		within = append(within, win.whole.withinFrac())
		propagate = append(propagate, median(totals))
		epochs, epochsOK = epochs+n, epochsOK+ok
	}
	res := s.res
	res.set("setup_s", summarize(setups))
	res.set("lookups_per_s", overRounds(rate))
	res.set("req_p50_us", overRounds(p50))
	res.set("within_limit_frac", overRounds(within))
	res.set("epoch_propagate_ms_p50", overRounds(propagate))
	res.setValue("epoch_ok_frac", float64(epochsOK)/float64(max(epochs, 1)))
	return nil
}

// traced measures the per-layer metrics: a quarter of the budget for
// the window without request spans, a quarter with them, then the
// drill, and half the budget for the ladder.
func (s *session) traced(budget time.Duration) error {
	if err := s.open(budget); err != nil {
		return err
	}
	res, e := s.res, s.e
	base := s.measure(budget/4, nil)
	servedBefore, err := servedLookups(e, s.w)
	if err != nil {
		return err
	}
	installsBefore := installs(e)
	win := s.measure(budget/4, s.tr)
	servedAfter, err := servedLookups(e, s.w)
	if err != nil {
		return err
	}
	// Every install self-probes 2×warmupProbes addresses under every
	// mapper plus one address outside the allocated space.
	probes := (installs(e) - installsBefore) * int64(2*warmupProbes*len(e.mappers)+1)
	res.setValue("obs.lookup_count_agreement", (servedAfter-servedBefore)/float64(win.sent+probes))

	eps := slices.Concat(base.epochs, win.epochs, s.drill())
	addEpochLayers(s.layers, eps)
	totals, _, _ := epochReport(eps, 0, forever)
	slices.Sort(totals)
	res.setValue("client.epoch_propagate_ms_p90", quantile(totals, 0.90))
	res.setValue("client.epoch_propagate_ms_max", quantile(totals, 1))

	lps := overSlices(win.slices, sliceStat.lookupsPerS)
	res.setValue("client.req_p90_us", win.whole.p90us)
	res.setValue("client.req_p99_us", win.whole.p99us)
	res.setValue("client.req_max_ms", win.whole.maxMs)
	res.setValue("client.reader_within_2ms_frac", win.within2ms)
	res.setValue("client.slice_spread_frac.lookups_per_s", lps.Spread)
	res.setValue("client.slice_spread_frac.req_p50_us",
		overSlices(win.slices, func(s sliceStat) float64 { return s.p50us }).Spread)
	res.setValue("bench.trace_overhead_frac",
		1-lps.Value/overSlices(base.slices, sliceStat.lookupsPerS).Value)

	reqs := float64(max(win.reqs, 1))
	res.setValue("proc.cpu_us_per_req", us(win.usage.cpu)/reqs)
	res.setValue("proc.alloc_bytes_per_req", float64(win.usage.allocBytes)/reqs)
	res.setValue("proc.gc_cycles", float64(win.usage.gcCycles))
	res.setValue("proc.gc_pause_ms", ms(win.usage.gcPause))

	if err := runLadder(e, s.o.seed, budget/2, s.tr, s.layers); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}

	t := e.times
	res.setValue("core.run_s", t.run.Seconds())
	for i, name := range stageNames {
		res.setValue("core.stage_"+name+"_ms", ms(t.stages[i]))
	}
	res.setValue("replica.sync_full_ms", ms(t.sync))
	var fallbacks, failures uint64
	for _, r := range e.fleet.reps {
		rs := r.Status()
		fallbacks += rs.DeltaFallbacks
		failures += rs.FetchFailures
	}
	rs := e.fleet.router.Status()
	res.setValue("replica.delta_fallbacks", float64(fallbacks))
	res.setValue("replica.fetch_failures", float64(failures))
	res.setValue("replica.router_retries", float64(rs.Retries))
	res.setValue("replica.router_sheds", float64(rs.Sheds))
	res.setValue("proc.peak_rss_mb", float64(procNow().ru.Maxrss)/1024) // Linux reports KiB

	for name, samples := range s.layers {
		res.set(name, summarize(samples))
	}
	res.setValue("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)))
	return s.tr.write(filepath.Join(s.o.outDir, "trace-"+s.w.name+".json"))
}

// installs is how many epochs the replicas have installed between them.
func installs(e *env) int64 {
	var n uint64
	for _, r := range e.fleet.reps {
		n += r.Status().Swaps
	}
	return int64(n)
}

// finish closes the report: correctness, the served digest, and a check
// that every metric the mode declares was measured.
func (r *result) finish(digest string) {
	r.Digest = digest
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.fail(1, "metric "+d.Name+" was not measured")
		}
	}
	r.Correct = r.Failed == 0
}
