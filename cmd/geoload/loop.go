package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/obs"
	"geonet/internal/rng"
)

// loop is one closed-loop run over one or more targets. Worker w draws
// from its own named split of the load seed, so a (loadseed,
// concurrency) pair replays the same address sequences against any
// fleet; its home is target w % len(targets), and with more than one
// target a failed round trip is retried once on the next in the ring,
// so the run keeps measuring through ejections and restarts.
type loop struct {
	urls        []string
	targets     []target // one per URL
	prefixes    []uint32
	mix         mixKind
	theta       float64
	loadSeed    int64
	concurrency int
	// batch is the addresses per round trip: a batch's mean per-lookup
	// latency is recorded once per address, so latency quantiles stay
	// comparable across -wire modes.
	batch    int
	duration time.Duration
	// sleep honors a Retry-After; time.Sleep outside tests.
	sleep func(time.Duration)
}

// tally is one worker's counts against one target, or over its whole
// run; every count is in addresses. Workers share none: run sums them
// once they have exited.
type tally struct {
	lookups, found, errors uint64
	// retries counts lookups that failed here and were sent on to the
	// next target; throttled those answered 429/503 with a Retry-After
	// the worker honored before touching the fleet again.
	retries, throttled uint64
	lat                obs.Histogram
	epochs             map[string]uint64
}

func newTallies(n int) []*tally {
	out := make([]*tally, n)
	for i := range out {
		out[i] = &tally{epochs: map[string]uint64{}}
	}
	return out
}

func (t *tally) answered(rep reply, k uint64) {
	t.found += uint64(rep.found)
	epoch := rep.epoch
	if epoch == "" {
		epoch = "none"
	}
	t.epochs[epoch] += k
}

func (t *tally) merge(o *tally) {
	t.lookups += o.lookups
	t.found += o.found
	t.errors += o.errors
	t.retries += o.retries
	t.throttled += o.throttled
	t.lat.Merge(&o.lat)
	for e, n := range o.epochs {
		t.epochs[e] += n
	}
}

// run executes the closed loop for l.duration and returns the report's
// measured part: the run-level row and one row per target.
func (l *loop) run() *report {
	root := rng.New(l.loadSeed)
	n := len(l.targets)
	// Per worker: one tally per target, then the run-level one.
	tallies := make([][]*tally, l.concurrency)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	start := time.Now()
	for w := range tallies {
		tallies[w] = newTallies(n + 1)
		gen := newAddrGen(l.mix, l.prefixes, l.theta, root.SplitN("worker", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work(w%n, gen, tallies[w][:n], tallies[w][n], &stop)
		}()
	}
	time.Sleep(l.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	sum := newTallies(n + 1)
	for _, per := range tallies {
		for i, t := range per {
			sum[i].merge(t)
		}
	}
	rep := &report{
		Mix: l.mix.String(), Concurrency: l.concurrency, Batch: l.batch,
		DurationNs:          int64(l.duration),
		LatencyHistBoundsNs: obs.ExportBounds(),
		Total:               sum[n].row("", elapsed),
	}
	for i, url := range l.urls {
		rep.Targets = append(rep.Targets, sum[i].row(url, elapsed))
	}
	return rep
}

// work is one worker: draw a batch, send it home, fail over once. A
// request's latency is the sum of its attempts, never the back-off a
// target asked for in between.
func (l *loop) work(home int, gen *addrGen, per []*tally, total *tally, stop *atomic.Bool) {
	ips := make([]uint32, l.batch)
	k := uint64(l.batch)
	attempts := min(2, len(l.targets))
	for !stop.Load() {
		for i := range ips {
			ips[i] = gen.next()
		}
		var (
			lat time.Duration
			rep reply
			err error
		)
		for a := 0; a < attempts; a++ {
			i := (home + a) % len(l.targets)
			t0 := time.Now()
			rep, err = l.targets[i].lookup(ips)
			d := time.Since(t0)
			lat += d
			t := per[i]
			t.lookups += k
			t.lat.RecordN(d/time.Duration(k), k)
			if err == nil {
				t.answered(rep, k)
				break
			}
			t.errors += k
			if rep.retryAfter > 0 {
				// The target asked for breathing room: honor it before
				// touching the fleet again, instead of converting
				// overload into a hammering loop.
				t.throttled += k
				total.throttled += k
				l.sleep(rep.retryAfter)
			}
			if a+1 < attempts {
				t.retries += k
				total.retries += k
			}
		}
		total.lookups += k
		total.lat.RecordN(lat/time.Duration(k), k)
		if err != nil {
			total.errors += k
			continue
		}
		total.answered(rep, k)
	}
}

// row is one line of the report: the whole run's, or one target's
// share of it. A wedged or overloaded target shows up as a fat p99 in
// its own row even when the run-level histogram still looks healthy; a
// fleet serving one epoch shows a single epoch bucket everywhere, a
// mid-run publish shows the swap front moving target by target.
type row struct {
	URL          string  `json:"url,omitempty"`
	Lookups      uint64  `json:"lookups"`
	QPS          float64 `json:"qps"`
	Found        uint64  `json:"found"`
	Errors       uint64  `json:"errors"`
	Retries      uint64  `json:"retries"`
	Throttled    uint64  `json:"throttled"`
	LatencyP50Ns int64   `json:"latency_p50_ns"`
	LatencyP90Ns int64   `json:"latency_p90_ns"`
	LatencyP99Ns int64   `json:"latency_p99_ns"`
	// Epochs counts answers by epoch tag ("none" when untagged).
	Epochs map[string]uint64 `json:"epochs"`
	// LatencyHistCounts is the full distribution, not just three
	// quantiles: counts per export bucket against the report's
	// latency_hist_bounds_ns (last bucket is overflow), so two runs can
	// be compared bucket by bucket after the fact.
	LatencyHistCounts []uint64 `json:"latency_hist_counts"`
}

func (t *tally) row(url string, elapsed time.Duration) row {
	qps := 0.0
	if elapsed > 0 {
		qps = float64(t.lookups) / elapsed.Seconds()
	}
	return row{
		URL: url, Lookups: t.lookups, QPS: qps, Found: t.found,
		Errors: t.errors, Retries: t.retries, Throttled: t.throttled,
		LatencyP50Ns:      int64(t.lat.Quantile(0.50)),
		LatencyP90Ns:      int64(t.lat.Quantile(0.90)),
		LatencyP99Ns:      int64(t.lat.Quantile(0.99)),
		Epochs:            t.epochs,
		LatencyHistCounts: t.lat.Export(),
	}
}

// text renders the row under the given name: the counts, then the
// non-empty histogram buckets with bounds as durations — the
// at-a-glance distribution behind the three quantiles.
func (r row) text(name string, bounds []uint64) string {
	foundPct := 0.0
	if r.Lookups > 0 {
		foundPct = 100 * float64(r.Found) / float64(r.Lookups)
	}
	epochs := make([]string, 0, len(r.Epochs))
	for e := range r.Epochs {
		epochs = append(epochs, e)
	}
	sort.Strings(epochs)
	for i, e := range epochs {
		epochs[i] = fmt.Sprintf("epoch %s×%d", e, r.Epochs[e])
	}
	var hist []string
	for i, n := range r.LatencyHistCounts {
		switch {
		case n == 0:
		case i < len(bounds):
			hist = append(hist, fmt.Sprintf("<=%s:%d", time.Duration(bounds[i]), n))
		default:
			hist = append(hist, fmt.Sprintf(">%s:%d", time.Duration(bounds[len(bounds)-1]), n))
		}
	}
	if hist == nil {
		hist = []string{"(empty)"}
	}
	return fmt.Sprintf("  %-28s %d lookups (%.0f/s) found=%.1f%% p50=%s p90=%s p99=%s errors=%d retries=%d throttled=%d %s\n"+
		"  %-28s hist %s\n",
		name, r.Lookups, r.QPS, foundPct,
		time.Duration(r.LatencyP50Ns), time.Duration(r.LatencyP90Ns), time.Duration(r.LatencyP99Ns),
		r.Errors, r.Retries, r.Throttled, strings.Join(epochs, " "),
		"", strings.Join(hist, " "))
}

// report is a whole run: what was asked for, where it ran, the
// run-level row and one row per target — the same shape for one target
// as for five. It is the text report and, marshalled as is, the -json
// document.
type report struct {
	Date        string  `json:"date"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	WorldScale  float64 `json:"world_scale"`
	Wire        string  `json:"wire"`
	Mix         string  `json:"mix"`
	Mapper      string  `json:"mapper"`
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"batch"`
	DurationNs  int64   `json:"duration_ns"`
	// ChurnEveryNs > 0 means the run drove continuous churn on the
	// first target; ChurnSteps/ChurnFailed count the admin steps fired.
	ChurnEveryNs        int64    `json:"churn_every_ns"`
	ChurnSteps          uint64   `json:"churn_steps"`
	ChurnFailed         uint64   `json:"churn_failed"`
	LatencyHistBoundsNs []uint64 `json:"latency_hist_bounds_ns"`
	Total               row      `json:"total"`
	Targets             []row    `json:"targets"`
}

func (r *report) text() string {
	s := fmt.Sprintf("geoload: wire=%s targets=%d mix=%s mapper=%s concurrency=%d batch=%d duration=%s\n",
		r.Wire, len(r.Targets), r.Mix, r.Mapper, r.Concurrency, r.Batch, time.Duration(r.DurationNs))
	s += r.Total.text("total", r.LatencyHistBoundsNs)
	for _, t := range r.Targets {
		s += t.text(t.URL, r.LatencyHistBoundsNs)
	}
	if r.ChurnEveryNs > 0 {
		s += fmt.Sprintf("  churn     %d steps every %s (%d failed)\n",
			r.ChurnSteps, time.Duration(r.ChurnEveryNs), r.ChurnFailed)
	}
	return s
}

// writeJSON writes the report as one JSON document to path ('-' =
// stdout).
func (r *report) writeJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
