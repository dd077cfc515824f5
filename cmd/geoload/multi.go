package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// Multi-replica mode (-target-list): drive a whole replication fleet
// at once. Each closed-loop worker is pinned to a home replica
// (spreading concurrency round-robin over the fleet) and fails over to
// the next replica when its home errors, so the run keeps measuring
// through ejections and restarts. The report breaks QPS, errors,
// retries and the observed snapshot epoch of every answer (from the
// X-Geo-Epoch response header) down per replica — a fleet serving one
// epoch shows a single epoch bucket everywhere; a mid-run publish
// shows the swap front moving replica by replica.

// runMultiMode is the -target-list entry point: parse the fleet,
// bootstrap the address mix off the first replica that answers, run
// the closed loop, report.
func runMultiMode(targetList, mapper string, mix mixKind, theta float64, loadSeed int64, concurrency int, d time.Duration, jsonOut string) {
	var urls []string
	for _, u := range strings.Split(targetList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fatalf("geoload: -target-list names no replicas")
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
	}}
	// The /24 index and world scale come from whichever replica
	// answers first — every replica at one epoch serves the same index.
	var (
		prefixes   []uint32
		worldScale float64
		lastErr    error
	)
	for _, u := range urls {
		if prefixes, lastErr = fetchPrefixes(client, u); lastErr == nil {
			worldScale, _ = fetchBuildScale(client, u)
			break
		}
	}
	if lastErr != nil {
		fatalf("geoload: no replica answered /v1/prefixes: %v", lastErr)
	}
	if len(prefixes) == 0 {
		fatalf("geoload: empty /24 index")
	}

	res := runMulti(client, urls, mapper, prefixes, mix, theta, loadSeed, concurrency, d)
	fmt.Print(res.format(mapper, mix, concurrency, d))
	if jsonOut != "" {
		if err := res.writeJSON(jsonOut, mapper, mix, concurrency, worldScale); err != nil {
			fatalf("geoload: %v", err)
		}
	}
	if res.errors > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// replicaStat is one replica's share of a multi-target run.
type replicaStat struct {
	URL     string  `json:"url"`
	Lookups uint64  `json:"lookups"`
	QPS     float64 `json:"qps"`
	Found   uint64  `json:"found"`
	Errors  uint64  `json:"errors"`
	// Retries counts lookups that failed here and were retried on the
	// next replica; Throttled counts 429/503 answers whose Retry-After
	// the worker honored before moving on.
	Retries   uint64 `json:"retries"`
	Throttled uint64 `json:"throttled"`
	// LatencyP50Ns/LatencyP99Ns are this replica's own answer-latency
	// quantiles — a wedged or overloaded member shows up as a fat p99
	// here even when the fleet-wide histogram still looks healthy.
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`
	// Epochs histograms the X-Geo-Epoch header over this replica's
	// answers ("none" when the header is absent — e.g. a plain
	// geoserved rather than a replica node).
	Epochs map[string]uint64 `json:"epochs"`
	// LatencyHistCounts is this replica's full answer-latency
	// distribution — counts per export bucket, against the run-level
	// latency_hist_bounds_ns upper bounds (last bucket is overflow).
	LatencyHistCounts []uint64 `json:"latency_hist_counts"`
}

// replicaCell is the hot-path accumulator behind a replicaStat.
type replicaCell struct {
	lookups   atomic.Uint64
	found     atomic.Uint64
	errors    atomic.Uint64
	retries   atomic.Uint64
	throttled atomic.Uint64
	lat       geoserve.Histogram
	mu        sync.Mutex
	epochs    map[string]uint64
}

func (c *replicaCell) noteEpoch(epoch string) {
	if epoch == "" {
		epoch = "none"
	}
	c.mu.Lock()
	c.epochs[epoch]++
	c.mu.Unlock()
}

type multiResult struct {
	lookups uint64
	found   uint64
	errors  uint64
	retries uint64
	elapsed time.Duration
	lat     *geoserve.Histogram
	cells   []*replicaCell
	urls    []string
}

// maxRetryAfter caps how long a worker honors a Retry-After hint, so a
// misconfigured server can't park the whole run.
const maxRetryAfter = 2 * time.Second

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delay-seconds or an HTTP-date — against the given current time,
// capped at maxRetryAfter. Zero means no usable hint (absent,
// malformed, or already in the past).
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		if d = at.Sub(now); d <= 0 {
			return 0
		}
	} else {
		return 0
	}
	return min(d, maxRetryAfter)
}

// lookupReplica issues one lookup and reports the answer, the epoch
// header that tagged it, and — on a 429/503 that carries Retry-After —
// how long the server asked the client to back off.
func lookupReplica(client *http.Client, base, mapper string, ip uint32) (found bool, epoch string, retryAfter time.Duration, err error) {
	resp, err := client.Get(base + "/v1/locate?ip=" + geoserve.FormatIPv4(ip) + "&mapper=" + mapper)
	if err != nil {
		return false, "", 0, err
	}
	defer resp.Body.Close()
	epoch = resp.Header.Get("X-Geo-Epoch")
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		}
		return false, epoch, retryAfter, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Found bool `json:"found"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, epoch, 0, err
	}
	return body.Found, epoch, 0, nil
}

// runMulti executes the closed loop over the fleet. Worker w's home
// replica is urls[w % len(urls)]; a failed lookup retries once on the
// following replica before counting as an error.
func runMulti(client *http.Client, urls []string, mapper string, prefixes []uint32, mix mixKind, theta float64, loadSeed int64, concurrency int, d time.Duration) *multiResult {
	root := rng.New(loadSeed)
	cells := make([]*replicaCell, len(urls))
	for i := range cells {
		cells[i] = &replicaCell{epochs: map[string]uint64{}}
	}
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		lookups atomic.Uint64
		found   atomic.Uint64
		errs    atomic.Uint64
		retries atomic.Uint64
	)
	hists := make([]*geoserve.Histogram, concurrency)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		hists[w] = &geoserve.Histogram{}
		gen := newAddrGen(mix, prefixes, theta, root.SplitN("worker", w))
		home := w % len(urls)
		wg.Add(1)
		go func(gen *addrGen, hist *geoserve.Histogram, home int) {
			defer wg.Done()
			var n, nf, ne, nr uint64
			for !stop.Load() {
				ip := gen.next()
				t0 := time.Now()
				target := home
				ok, epoch, retryAfter, err := lookupReplica(client, urls[target], mapper, ip)
				cells[target].lookups.Add(1)
				cells[target].lat.Record(time.Since(t0))
				if err != nil && retryAfter > 0 {
					// The replica asked for breathing room (429/503 with
					// Retry-After): honor it before touching the fleet
					// again, instead of converting overload into a
					// hammering loop.
					cells[target].throttled.Add(1)
					time.Sleep(retryAfter)
				}
				if err != nil && len(urls) > 1 {
					// Fail over once to the next replica in the ring.
					cells[target].errors.Add(1)
					cells[target].retries.Add(1)
					nr++
					target = (home + 1) % len(urls)
					t1 := time.Now()
					ok, epoch, retryAfter, err = lookupReplica(client, urls[target], mapper, ip)
					cells[target].lookups.Add(1)
					cells[target].lat.Record(time.Since(t1))
					if err != nil && retryAfter > 0 {
						cells[target].throttled.Add(1)
						time.Sleep(retryAfter)
					}
				}
				hist.Record(time.Since(t0))
				n++
				if err != nil {
					cells[target].errors.Add(1)
					ne++
					continue
				}
				cells[target].noteEpoch(epoch)
				if ok {
					cells[target].found.Add(1)
					nf++
				}
			}
			lookups.Add(n)
			found.Add(nf)
			errs.Add(ne)
			retries.Add(nr)
		}(gen, hists[w], home)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	merged := &geoserve.Histogram{}
	for _, h := range hists {
		merged.Merge(h)
	}
	return &multiResult{
		lookups: lookups.Load(),
		found:   found.Load(),
		errors:  errs.Load(),
		retries: retries.Load(),
		elapsed: elapsed,
		lat:     merged,
		cells:   cells,
		urls:    urls,
	}
}

// replicaStats freezes the per-replica accumulators into report rows.
func (r *multiResult) replicaStats() []replicaStat {
	out := make([]replicaStat, len(r.cells))
	seconds := r.elapsed.Seconds()
	for i, c := range r.cells {
		qps := 0.0
		if seconds > 0 {
			qps = float64(c.lookups.Load()) / seconds
		}
		c.mu.Lock()
		epochs := make(map[string]uint64, len(c.epochs))
		for k, v := range c.epochs {
			epochs[k] = v
		}
		c.mu.Unlock()
		out[i] = replicaStat{
			URL:               r.urls[i],
			Lookups:           c.lookups.Load(),
			QPS:               qps,
			Found:             c.found.Load(),
			Errors:            c.errors.Load(),
			Retries:           c.retries.Load(),
			Throttled:         c.throttled.Load(),
			LatencyP50Ns:      int64(c.lat.Quantile(0.50)),
			LatencyP99Ns:      int64(c.lat.Quantile(0.99)),
			Epochs:            epochs,
			LatencyHistCounts: c.lat.Export(),
		}
	}
	return out
}

func (r *multiResult) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.lookups) / r.elapsed.Seconds()
}

func (r *multiResult) format(mapper string, mix mixKind, concurrency int, d time.Duration) string {
	foundPct := 0.0
	if r.lookups > 0 {
		foundPct = 100 * float64(r.found) / float64(r.lookups)
	}
	s := fmt.Sprintf(
		"geoload: mode=multi replicas=%d mix=%s mapper=%s concurrency=%d duration=%s\n"+
			"  lookups   %d (%.0f/s)\n"+
			"  found     %.1f%%\n"+
			"  latency   p50=%s p90=%s p99=%s\n"+
			"  hist      %s\n"+
			"  errors    %d (retried %d)\n",
		len(r.urls), mix, mapper, concurrency, d,
		r.lookups, r.qps(), foundPct,
		r.lat.Quantile(0.50), r.lat.Quantile(0.90), r.lat.Quantile(0.99),
		formatHist(r.lat),
		r.errors, r.retries)
	for i, rs := range r.replicaStats() {
		epochs := make([]string, 0, len(rs.Epochs))
		for e := range rs.Epochs {
			epochs = append(epochs, e)
		}
		sort.Strings(epochs)
		ep := ""
		for i, e := range epochs {
			if i > 0 {
				ep += " "
			}
			ep += fmt.Sprintf("epoch %s×%d", e, rs.Epochs[e])
		}
		s += fmt.Sprintf("  replica %-28s %d lookups (%.0f/s) p50=%s p99=%s errors=%d retries=%d throttled=%d %s\n"+
			"          %-28s hist %s\n",
			rs.URL, rs.Lookups, rs.QPS,
			time.Duration(rs.LatencyP50Ns), time.Duration(rs.LatencyP99Ns),
			rs.Errors, rs.Retries, rs.Throttled, ep,
			"", formatHist(&r.cells[i].lat))
	}
	return s
}

// writeJSON emits the same document shape as result.writeJSON with a
// per-replica breakdown under the geoload key.
func (r *multiResult) writeJSON(path, mapper string, mix mixKind, concurrency int, scale float64) error {
	name := fmt.Sprintf("GeoloadLookup/multi/%s/%s/c%d", mix, mapper, concurrency)
	nsPerOp := 0.0
	if r.lookups > 0 {
		nsPerOp = float64(r.elapsed.Nanoseconds()) * float64(concurrency) / float64(r.lookups)
	}
	keys := map[string]any{
		"date":        time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"bench_scale": scale,
		"geoload": map[string]any{
			"mode": "multi", "mix": mix.String(), "mapper": mapper,
			"concurrency": concurrency, "lookups": r.lookups,
			"qps": r.qps(), "errors": r.errors, "retries": r.retries,
			"latency_p50_ns":         int64(r.lat.Quantile(0.50)),
			"latency_p90_ns":         int64(r.lat.Quantile(0.90)),
			"latency_p99_ns":         int64(r.lat.Quantile(0.99)),
			"latency_hist_bounds_ns": geoserve.HistogramBounds(),
			"latency_hist_counts":    r.lat.Export(),
			"replicas":               r.replicaStats(),
		},
		"benchmarks": []map[string]any{{
			"name":       name,
			"iterations": r.lookups,
			"ns_per_op":  nsPerOp,
		}},
	}
	b, err := marshalOrdered(keys)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
