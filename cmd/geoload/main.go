// Command geoload is a closed-loop load generator for the geoserve
// layer: N workers each issue one lookup, wait for the answer, and
// immediately issue the next, so measured throughput is the service's
// sustainable rate at that concurrency (not an open-loop arrival
// fantasy). It drives either a running geoserved over HTTP or a
// geoserve.Cluster in-process.
//
//	geoload -scale 0.02 -mix zipf -concurrency 8 -duration 5s
//	geoload -target http://localhost:8080 -mix unmappable -duration 10s
//	geoload -target-list http://r1:8081,http://r2:8082 -duration 10s
//
// Address mixes:
//
//	uniform     addresses uniform over the allocated /24 index
//	zipf        /24s drawn rank-Zipf (theta -zipftheta), hot-prefix skew
//	unmappable  half uniform, half guaranteed-miss (class E) addresses
//
// In-process mode builds the pipeline itself (-seed/-scale) and drives
// a geoserve.Cluster of -shards prefix-range shards; HTTP mode fetches
// the target's /24 index from /v1/prefixes, so the mix matches whatever
// world the server is serving. When the target has more than one shard
// (either mode) the report gains a per-shard section: each shard's
// lookups, QPS and share of the run's traffic. -json writes the run as
// one JSON document (counts, quantiles, the full latency histogram);
// the repo's benchmark and its -compare live in bench/.
//
// In HTTP mode -wire selects the request encoding: json issues one
// GET /v1/locate per lookup; bin posts length-prefixed binary batches
// of -wirebatch addresses to /v1/locate/bin; stream holds one
// full-duplex /v1/locate/stream session per connection and ping-pongs
// -wirebatch-address chunks against epoch-tagged answer frames. The
// binary modes measure the server past the JSON wall — same answers
// (the wire golden pins byte-equivalence), a fraction of the cost.
//
// With -churn-every D the run additionally fires one POST
// /v1/admin/churn at the target every D, so the measured QPS is the
// service's sustained rate while it continuously delta-compiles and
// hot-swaps new epochs underneath the load; the report counts the
// steps the world moved through.
//
// With -target-list the run drives a whole replication fleet
// (geoserved -replica-of nodes): workers pin to home replicas
// round-robin, fail over to the next replica on error, honor a
// Retry-After header on 429/503 (capped at 2s) instead of hammering
// an overloaded or draining member, and the report breaks QPS,
// errors, retries, honored throttles, p50/p99 answer latency and the
// observed X-Geo-Epoch of every answer down per replica (see
// multi.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// target abstracts the two driving modes.
type target interface {
	lookup(ip uint32) (found bool, err error)
	mode() string
}

type inProcess struct {
	cluster *geoserve.Cluster
	mapper  int
}

func (t *inProcess) lookup(ip uint32) (bool, error) {
	return t.cluster.Lookup(t.mapper, ip).Found, nil
}

// mode keeps the two labels earlier reports carry.
func (t *inProcess) mode() string {
	if t.cluster.NumShards() > 1 {
		return "inprocess-sharded"
	}
	return "inprocess"
}

type overHTTP struct {
	client *http.Client
	base   string
	mapper string
}

func (t *overHTTP) lookup(ip uint32) (bool, error) {
	resp, err := t.client.Get(t.base + "/v1/locate?ip=" + geoserve.FormatIPv4(ip) + "&mapper=" + t.mapper)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Found bool `json:"found"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	return body.Found, nil
}
func (t *overHTTP) mode() string { return "http" }

func main() {
	targetURL := flag.String("target", "", "geoserved base URL (empty = drive a cluster in-process)")
	targetList := flag.String("target-list", "", "comma-separated replica URLs: drive the whole fleet with failover and a per-replica report")
	seed := flag.Int64("seed", 1, "world seed (in-process mode)")
	scale := flag.Float64("scale", 0.02, "world scale (in-process mode)")
	workers := flag.Int("workers", 0, "pipeline workers for the in-process build (0 = one per CPU)")
	shards := flag.Int("shards", 1, "prefix-range shards of the in-process cluster (1 = unsharded)")
	mapper := flag.String("mapper", "ixmapper", "mapper to query")
	concurrency := flag.Int("concurrency", 4, "closed-loop workers")
	duration := flag.Duration("duration", 5*time.Second, "measurement duration")
	mixName := flag.String("mix", "uniform", "address mix: uniform, zipf or unmappable")
	zipfTheta := flag.Float64("zipftheta", 1.2, "Zipf exponent for -mix zipf")
	loadSeed := flag.Int64("loadseed", 1, "seed for the address draw streams")
	jsonOut := flag.String("json", "", "write the run as JSON to this file ('-' = stdout)")
	quiet := flag.Bool("quiet", false, "suppress build progress")
	wire := flag.String("wire", "json", "HTTP request encoding: json (GET /v1/locate), bin (binary batches to /v1/locate/bin) or stream (full-duplex /v1/locate/stream)")
	wireBatch := flag.Int("wirebatch", 256, "addresses per binary batch or stream chunk (-wire bin|stream)")
	churnEvery := flag.Duration("churn-every", 0, "fire POST /v1/admin/churn on the target at this interval during the run (0 = off), measuring sustained QPS through continuous rebuilds")
	flag.Parse()

	mix, err := parseMix(*mixName)
	if err != nil {
		log.Fatalf("geoload: %v", err)
	}
	if *concurrency < 1 {
		log.Fatal("geoload: -concurrency must be >= 1")
	}
	if *shards > 1 && *targetURL != "" {
		log.Fatal("geoload: -shards only shapes the in-process cluster; start geoserved -shards and point -target at it instead")
	}
	if *wire != "json" && *wire != "bin" && *wire != "stream" {
		log.Fatalf("geoload: unknown -wire %q (json, bin or stream)", *wire)
	}
	if *wire != "json" && (*targetURL == "" || *targetList != "") {
		log.Fatal("geoload: -wire bin|stream drives a single HTTP target; set -target")
	}
	if *wireBatch < 1 || *wireBatch > geoserve.MaxBatch {
		log.Fatalf("geoload: -wirebatch must be in [1, %d]", geoserve.MaxBatch)
	}
	if *churnEvery < 0 {
		log.Fatal("geoload: -churn-every must be >= 0")
	}
	if *churnEvery > 0 && *targetURL == "" {
		log.Fatal("geoload: -churn-every drives a geoserved builder's /v1/admin/churn; set -target")
	}
	if *targetList != "" {
		if *targetURL != "" || *shards > 1 {
			log.Fatal("geoload: -target-list excludes -target and -shards")
		}
		runMultiMode(*targetList, *mapper, mix, *zipfTheta, *loadSeed, *concurrency, *duration, *jsonOut)
		return
	}

	var (
		tgt        target
		prefixes   []uint32
		worldScale = *scale
		// shardStats reads the per-shard lookup totals after the run
		// (nil when the target reports none).
		shardStats func() []shardCount
	)
	if *targetURL == "" {
		cfg := core.Config{Seed: *seed, Scale: *scale, Workers: *workers}
		if !*quiet {
			cfg.Progress = os.Stderr
		}
		p, err := core.Run(cfg)
		if err != nil {
			log.Fatalf("geoload: pipeline: %v", err)
		}
		snap, err := p.Serve()
		if err != nil {
			log.Fatalf("geoload: %v", err)
		}
		idx, ok := snap.MapperIndex(*mapper)
		if !ok {
			log.Fatalf("geoload: unknown mapper %q (have %v)", *mapper, snap.Mappers())
		}
		prefixes = snap.Prefixes()
		cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: *shards})
		if err != nil {
			log.Fatalf("geoload: %v", err)
		}
		tgt = &inProcess{cluster: cluster, mapper: idx}
		shardStats = func() []shardCount {
			var out []shardCount
			for _, ss := range cluster.Status().ShardStats {
				out = append(out, shardCount{ID: ss.ID, Lookups: ss.Lookups})
			}
			return out
		}
	} else {
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		}}
		prefixes, err = fetchPrefixes(client, *targetURL)
		if err != nil {
			log.Fatalf("geoload: fetching /v1/prefixes: %v", err)
		}
		// Record the scale of the world the server actually serves,
		// not the unused in-process flag, so -json snapshots compare
		// like-for-like.
		worldScale, err = fetchBuildScale(client, *targetURL)
		if err != nil {
			log.Fatalf("geoload: fetching /healthz: %v", err)
		}
		switch *wire {
		case "bin", "stream":
			id, err := fetchMapperID(client, *targetURL, *mapper)
			if err != nil {
				log.Fatalf("geoload: resolving mapper wire id: %v", err)
			}
			if *wire == "bin" {
				tgt = newOverHTTPBin(client, *targetURL, id)
			} else {
				tgt = newOverHTTPStream(client, *targetURL, id)
			}
		default:
			tgt = &overHTTP{client: client, base: *targetURL, mapper: *mapper}
		}
		// geoserved exposes per-shard sections in /statusz; report this
		// run's per-shard traffic as a before/after delta.
		if before, ok := fetchShardLookups(client, *targetURL); ok {
			shardStats = func() []shardCount {
				after, ok := fetchShardLookups(client, *targetURL)
				if !ok || len(after) != len(before) {
					return nil
				}
				for i := range after {
					if after[i].Lookups < before[i].Lookups {
						// The server restarted mid-run; the delta is
						// meaningless.
						return nil
					}
					after[i].Lookups -= before[i].Lookups
				}
				return after
			}
		}
	}
	if len(prefixes) == 0 {
		log.Fatal("geoload: empty /24 index")
	}

	batchN := 1
	if *wire != "json" {
		batchN = *wireBatch
	}
	// With -churn-every the run measures sustained throughput while the
	// server continuously rebuilds: a side goroutine fires one churn
	// step per interval for the whole window, and the report says how
	// many epochs the target moved through under load.
	var (
		churnSteps, churnFailed uint64
		churnStop               chan struct{}
		churnDone               sync.WaitGroup
	)
	if *churnEvery > 0 {
		churnStop = make(chan struct{})
		churnDone.Add(1)
		go func() {
			defer churnDone.Done()
			client := &http.Client{}
			tick := time.NewTicker(*churnEvery)
			defer tick.Stop()
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
					resp, err := client.Post(*targetURL+"/v1/admin/churn", "application/json", nil)
					if err != nil {
						churnFailed++
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						churnSteps++
					} else {
						churnFailed++
					}
				}
			}
		}()
	}
	res := run(tgt, prefixes, mix, *zipfTheta, *loadSeed, *concurrency, *duration, batchN)
	if churnStop != nil {
		close(churnStop)
		churnDone.Wait()
		res.churnEvery = *churnEvery
		res.churnSteps = churnSteps
		res.churnFailed = churnFailed
	}
	if shardStats != nil {
		// One shard is the whole run; the summary already says that.
		if sc := shardStats(); len(sc) > 1 {
			res.shards = sc
		}
	}
	fmt.Print(res.format(tgt.mode(), *mapper, mix, *concurrency, *duration))
	if *jsonOut != "" {
		if err := res.writeJSON(*jsonOut, tgt.mode(), *mapper, mix, *concurrency, worldScale); err != nil {
			log.Fatalf("geoload: %v", err)
		}
	}
	if res.errors > 0 {
		os.Exit(1)
	}
}

func fetchPrefixes(client *http.Client, base string) ([]uint32, error) {
	resp, err := client.Get(base + "/v1/prefixes")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Prefixes []string `json:"prefixes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make([]uint32, 0, len(body.Prefixes))
	for _, p := range body.Prefixes {
		if n := len(p); n > 3 && p[n-3:] == "/24" {
			p = p[:n-3]
		}
		ip, err := geoserve.ParseIPv4(p)
		if err != nil {
			return nil, err
		}
		out = append(out, ip)
	}
	return out, nil
}

// fetchBuildScale reads the served snapshot's world scale from
// /healthz.
func fetchBuildScale(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Snapshot struct {
			Build struct {
				Scale float64 `json:"scale"`
			} `json:"build"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body.Snapshot.Build.Scale, nil
}

// fetchShardLookups reads the per-shard lookup counters from a
// geoserved's /statusz; ok=false when the target has no shard_stats
// section (a router).
func fetchShardLookups(client *http.Client, base string) ([]shardCount, bool) {
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var body struct {
		ShardStats []shardCount `json:"shard_stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || len(body.ShardStats) == 0 {
		return nil, false
	}
	return body.ShardStats, true
}

// shardCount is one shard's share of the run's lookups (the delta of
// its lookup counter over the measurement window).
type shardCount struct {
	ID      int    `json:"id"`
	Lookups uint64 `json:"lookups"`
}

type result struct {
	lookups uint64
	found   uint64
	errors  uint64
	elapsed time.Duration
	lat     *geoserve.Histogram
	// shards holds per-shard lookup counts when the target has more
	// than one shard (in-process or a sharded geoserved).
	shards []shardCount
	// churnEvery > 0 means the run drove continuous churn on the
	// target; churnSteps/churnFailed count the admin steps fired.
	churnEvery  time.Duration
	churnSteps  uint64
	churnFailed uint64
}

// run executes the closed loop: each worker draws from its own named
// split of the load seed, so a (loadseed, concurrency) pair replays
// the same address sequences against any target. With batchN > 1 the
// target must be a batchTarget; each worker then issues whole batches
// per round trip and the batch's mean per-lookup latency is recorded
// once per address, so latency quantiles stay comparable across -wire
// modes.
func run(tgt target, prefixes []uint32, mix mixKind, theta float64, loadSeed int64, concurrency int, d time.Duration, batchN int) *result {
	root := rng.New(loadSeed)
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		lookups atomic.Uint64
		found   atomic.Uint64
		errs    atomic.Uint64
	)
	hists := make([]*geoserve.Histogram, concurrency)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		hists[w] = &geoserve.Histogram{}
		gen := newAddrGen(mix, prefixes, theta, root.SplitN("worker", w))
		wg.Add(1)
		go func(gen *addrGen, hist *geoserve.Histogram) {
			defer wg.Done()
			var n, nf, ne uint64
			if bt, ok := tgt.(batchTarget); ok && batchN > 1 {
				ips := make([]uint32, batchN)
				for !stop.Load() {
					for i := range ips {
						ips[i] = gen.next()
					}
					t0 := time.Now()
					foundN, err := bt.lookupBatch(ips)
					hist.RecordN(time.Since(t0)/time.Duration(batchN), uint64(batchN))
					n += uint64(batchN)
					if err != nil {
						ne += uint64(batchN)
						continue
					}
					nf += uint64(foundN)
				}
			} else {
				for !stop.Load() {
					ip := gen.next()
					t0 := time.Now()
					ok, err := tgt.lookup(ip)
					hist.Record(time.Since(t0))
					n++
					if err != nil {
						ne++
						continue
					}
					if ok {
						nf++
					}
				}
			}
			lookups.Add(n)
			found.Add(nf)
			errs.Add(ne)
		}(gen, hists[w])
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	merged := &geoserve.Histogram{}
	for _, h := range hists {
		merged.Merge(h)
	}
	return &result{
		lookups: lookups.Load(),
		found:   found.Load(),
		errors:  errs.Load(),
		elapsed: elapsed,
		lat:     merged,
	}
}

// formatHist renders a histogram's non-empty export buckets on one
// line, bounds as durations — the at-a-glance distribution behind the
// three quantiles the summary prints.
func formatHist(h *geoserve.Histogram) string {
	bounds := geoserve.HistogramBounds()
	counts := h.Export()
	s := ""
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		if i < len(bounds) {
			s += fmt.Sprintf("<=%s:%d", time.Duration(bounds[i]), n)
		} else {
			s += fmt.Sprintf(">%s:%d", time.Duration(bounds[len(bounds)-1]), n)
		}
	}
	if s == "" {
		return "(empty)"
	}
	return s
}

func (r *result) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.lookups) / r.elapsed.Seconds()
}

func (r *result) format(mode, mapper string, mix mixKind, concurrency int, d time.Duration) string {
	foundPct := 0.0
	if r.lookups > 0 {
		foundPct = 100 * float64(r.found) / float64(r.lookups)
	}
	s := fmt.Sprintf(
		"geoload: mode=%s mix=%s mapper=%s concurrency=%d duration=%s\n"+
			"  lookups   %d (%.0f/s)\n"+
			"  found     %.1f%%\n"+
			"  latency   p50=%s p90=%s p99=%s\n"+
			"  hist      %s\n"+
			"  errors    %d\n",
		mode, mix, mapper, concurrency, d,
		r.lookups, r.qps(), foundPct,
		r.lat.Quantile(0.50), r.lat.Quantile(0.90), r.lat.Quantile(0.99),
		formatHist(r.lat),
		r.errors)
	if r.churnEvery > 0 {
		s += fmt.Sprintf("  churn     %d steps every %s (%d failed)\n",
			r.churnSteps, r.churnEvery, r.churnFailed)
	}
	if len(r.shards) > 0 {
		var total uint64
		for _, sc := range r.shards {
			total += sc.Lookups
		}
		seconds := r.elapsed.Seconds()
		for _, sc := range r.shards {
			share := 0.0
			if total > 0 {
				share = 100 * float64(sc.Lookups) / float64(total)
			}
			qps := 0.0
			if seconds > 0 {
				qps = float64(sc.Lookups) / seconds
			}
			s += fmt.Sprintf("  shard %-3d %d lookups (%.0f/s, %.1f%%)\n", sc.ID, sc.Lookups, qps, share)
		}
	}
	return s
}

// writeJSON emits the run as one JSON document: environment keys, the
// "geoload" section, and a one-entry "benchmarks" list (name,
// iterations, ns_per_op).
func (r *result) writeJSON(path, mode, mapper string, mix mixKind, concurrency int, scale float64) error {
	name := fmt.Sprintf("GeoloadLookup/%s/%s/%s/c%d", mode, mix, mapper, concurrency)
	nsPerOp := 0.0
	if r.lookups > 0 {
		nsPerOp = float64(r.elapsed.Nanoseconds()) * float64(concurrency) / float64(r.lookups)
	}
	loadKeys := map[string]any{
		"mode": mode, "mix": mix.String(), "mapper": mapper,
		"concurrency": concurrency, "lookups": r.lookups,
		"qps": r.qps(), "errors": r.errors,
		"latency_p50_ns": int64(r.lat.Quantile(0.50)),
		"latency_p90_ns": int64(r.lat.Quantile(0.90)),
		"latency_p99_ns": int64(r.lat.Quantile(0.99)),
		// The full distribution, not just three quantiles: counts per
		// bucket with upper bounds in ns (last bucket is overflow), so
		// two runs can be compared bucket-by-bucket after the fact.
		"latency_hist_bounds_ns": geoserve.HistogramBounds(),
		"latency_hist_counts":    r.lat.Export(),
	}
	if len(r.shards) > 0 {
		loadKeys["shards"] = r.shards
	}
	if r.churnEvery > 0 {
		loadKeys["churn_every_ns"] = int64(r.churnEvery)
		loadKeys["churn_steps"] = r.churnSteps
		loadKeys["churn_failed"] = r.churnFailed
	}
	keys := map[string]any{
		"date":        time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"bench_scale": scale,
		"geoload":     loadKeys,
		"benchmarks": []map[string]any{{
			"name":       name,
			"iterations": r.lookups,
			"ns_per_op":  nsPerOp,
		}},
	}
	// Stable key order for human diffing.
	var b []byte
	var err error
	if b, err = marshalOrdered(keys); err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// marshalOrdered renders the snapshot with the conventional field
// order (date/cpu counts first, benchmarks last).
func marshalOrdered(m map[string]any) ([]byte, error) {
	order := []string{"date", "gomaxprocs", "num_cpu", "bench_scale", "geoload", "benchmarks"}
	var buf []byte
	buf = append(buf, '{', '\n')
	first := true
	emit := func(k string) error {
		v, ok := m[k]
		if !ok {
			return nil
		}
		if !first {
			buf = append(buf, ',', '\n')
		}
		first = false
		kb, _ := json.Marshal(k)
		vb, err := json.MarshalIndent(v, "  ", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, ' ', ' ')
		buf = append(buf, kb...)
		buf = append(buf, ':', ' ')
		buf = append(buf, vb...)
		return nil
	}
	for _, k := range order {
		if err := emit(k); err != nil {
			return nil, err
		}
	}
	// Any extra keys, sorted, for forward compatibility.
	var extra []string
	for k := range m {
		seen := false
		for _, o := range order {
			if k == o {
				seen = true
				break
			}
		}
		if !seen {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		if err := emit(k); err != nil {
			return nil, err
		}
	}
	buf = append(buf, '\n', '}', '\n')
	return buf, nil
}
