// Command geoserved is the online geolocation query service: it runs
// the reproduction pipeline once at startup, compiles the result into
// an immutable serving snapshot (internal/geoserve) and answers
// lookups over HTTP.
//
//	geoserved -addr :8080 -seed 1 -scale 0.1
//	geoserved -addr :8080 -scale 0.1 -shards 8
//
// API (see geoserve.NewHandler):
//
//	GET  /v1/locate?ip=A.B.C.D[&mapper=ixmapper|edgescape]
//	POST /v1/locate/batch          {"mapper": ..., "ips": [...]}
//	POST /v1/locate/bin            binary batch (geoserve wire protocol)
//	POST /v1/locate/stream         full-duplex chunked binary lookups
//	GET  /v1/as/{asn}/footprint
//	GET  /v1/prefixes
//	GET  /healthz
//	GET  /statusz
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/tracez             recent + slow request traces (JSON)
//	POST /v1/admin/rebuild[?seed=N&scale=F]
//	POST /v1/admin/churn           apply one churn step (builder mode)
//
// Every mode that serves lookups serves them from one geoserve.Cluster
// of -shards N prefix-range shards (default 1). Shards are ranges for
// accounting and shedding, not parallelism: a lookup is counted on the
// shard owning its address, a batch is admitted against the shards it
// touches (429 when one already holds -queuebudget batches in flight)
// and served by the goroutine that brought it, and /statusz carries
// one section per shard. Answers are byte-identical at any shard
// count.
//
// The rebuild endpoint runs a whole new pipeline (possibly a different
// seed or scale) in the background and hot-swaps the serving snapshot
// when it finishes — one pointer store, so no answer or batch mixes
// two epochs; readers never pause. One rebuild runs at a time (409
// while one is in flight).
//
// # Continuous topology churn
//
// A builder that ran the pipeline (not a -snapshot cold start) can
// also evolve its world continuously instead of rebuilding it from
// scratch: a deterministic churn stream (internal/churn) draws BGP
// announces/withdraws, allocation growth, interface churn and monitor
// loss, and each step is delta-compiled from the serving snapshot —
// only the /24 intervals whose answers could have changed are
// recomputed — then hot-swapped (Cluster.SwapDelta reports how many
// shards own a touched interval) and, with -publish, published as a
// delta-served replication epoch.
//
//	geoserved -scale 0.1 -publish -churn -churn-interval 5s
//
// POST /v1/admin/churn applies one step on demand (also available
// without -churn). Churn steps and /v1/admin/rebuild both hot-swap
// the serving snapshot; the churn stream always continues from its
// own chain, so mixing the two is last-writer-wins.
//
// # Snapshot files and the replication fleet
//
// Snapshots travel as versioned, digest-checked files
// (internal/geoserve/snapfile) and over a builder→replica protocol
// (internal/geoserve/replica), giving geoserved four more modes:
//
//	geoserved -scale 0.1 -write-snapshot world.snap -addr ""   build, write, exit
//	geoserved -snapshot world.snap                             cold start: load the
//	                                                           file, skip the pipeline
//	geoserved -scale 0.1 -publish                              builder: also serve
//	                                                           /v1/replication/* epochs
//	geoserved -replica-of http://builder:8080                  replica: fetch → verify →
//	                                                           swap loop, serve the API
//	geoserved -router http://r1:8081,http://r2:8082            router: health-checked
//	                                                           fan-out over replicas
//
// A -publish builder publishes a new epoch after every successful
// rebuild, retains a window of recent epochs, and serves deltas
// between retained epochs (/v1/replication/delta/{from}/{to}) so
// replicas already near the head move only the changed /24 intervals.
// Replicas verify every fetched file or applied delta (whole-file hash
// + recomputed content digest; any delta failure falls back to the
// full fetch), warm a fresh snapshot up against a seeded self-probe
// set before the atomic swap, keep serving their last-good epoch
// through builder outages (reporting stale_epoch on /statusz), and
// resume interrupted downloads. The router plans by least outstanding
// requests with per-replica latency EWMAs, runs every attempt under a
// deadline with a global retry budget and a per-replica circuit
// breaker, ejects unhealthy replicas, readmits them when probes
// recover, forwards every request — a JSON batch like a single lookup
// or a binary frame — whole to one replica at the plan epoch (so no
// answer set blends two epochs, and validation is the replica's), and
// sheds with 503 + Retry-After only when no healthy replica holds a
// complete epoch.
//
// The binary endpoints speak the geoserve wire protocol (see the wire
// protocol section of DESIGN.md): length-prefixed batches of IPv4
// addresses answered by fixed-width records copied straight out of
// the snapshot's record slabs, each frame tagged with the serving
// snapshot's epoch. cmd/geoload drives them with -wire bin|stream.
//
// # Observability
//
// Every mode exposes its serving metrics in Prometheus text format at
// GET /metrics and its recent request traces at GET /debug/tracez on
// the serving listener (internal/obs). A request carrying an
// X-Geo-Trace header is traced across hops — the router mints an ID at
// the edge, stamps it onto upstream calls, and each tier records its
// spans into a bounded in-memory ring with a slow-request retention
// bias. With -debug-addr a second listener additionally serves the
// net/http/pprof suite alongside /metrics and /debug/tracez, so
// profiling and scraping can be firewalled away from query traffic.
// Replica mode accepts -shards/-queuebudget too, for the cluster each
// installed epoch serves from.
//
// All modes drain on SIGTERM/SIGINT: replicas and routers fail
// /healthz with status "draining" so load balancers steer away, then
// http.Server.Shutdown waits for in-flight requests under
// -drain-timeout (default 10s) before the process exits — a rolling
// restart loses zero answers. Every mode's listener bounds connection
// phases (-read-header-timeout, -read-timeout, -idle-timeout) so a
// stalled client cannot pin a connection or hold a drain hostage.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"net/http/pprof"

	"geonet/internal/churn"
	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/replica"
	"geonet/internal/geoserve/snapfile"
	"geonet/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (empty: exit after -write-snapshot)")
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 0.1, "world scale relative to the paper's Skitter snapshot")
	workers := flag.Int("workers", 0, "pipeline/compile workers (0 = one per CPU); also pins GOMAXPROCS")
	cacheBudget := flag.Int("cachebudget", 0, "netsim route-cache budget override (0 = default)")
	shards := flag.Int("shards", 1, "prefix-range shards: ranges for per-shard accounting and shedding, not parallelism (1 = unsharded)")
	queueBudget := flag.Int("queuebudget", 0, "per-shard in-flight batch budget before shedding (0 = default)")
	snapshotPath := flag.String("snapshot", "", "cold start: load this snapshot file instead of running the pipeline")
	writeSnapshot := flag.String("write-snapshot", "", "write the serving snapshot to this file (then exit if -addr is empty)")
	publish := flag.Bool("publish", false, "serve /v1/replication/* so replicas can follow this builder")
	churnOn := flag.Bool("churn", false, "continuously evolve the world: apply one churn step every -churn-interval")
	churnInterval := flag.Duration("churn-interval", 5*time.Second, "delay between background churn steps (-churn)")
	churnSeed := flag.Int64("churn-seed", 0, "churn event stream seed (0 = the world seed)")
	churnEvents := flag.Int("churn-events", 8, "topology events applied per churn step")
	replicaOf := flag.String("replica-of", "", "run as a replica of this builder URL (no pipeline)")
	router := flag.String("router", "", "run as a router over these comma-separated replica URLs (no pipeline)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on SIGTERM/SIGINT")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof plus /metrics and /debug/tracez (empty: observability rides on -addr only)")
	quiet := flag.Bool("quiet", false, "suppress build progress")
	flag.DurationVar(&timeouts.readHeader, "read-header-timeout", 10*time.Second, "max wait for a request's headers (0 = unbounded; guards drain against stalled clients)")
	flag.DurationVar(&timeouts.read, "read-timeout", 5*time.Minute, "max lifetime of one request read, including streaming bodies (0 = unbounded)")
	flag.DurationVar(&timeouts.idle, "idle-timeout", 2*time.Minute, "max keep-alive idle time per connection (0 = unbounded)")
	flag.Parse()

	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *shards < 1 {
		log.Fatal("geoserved: -shards must be >= 1")
	}
	if *replicaOf != "" && *router != "" {
		log.Fatal("geoserved: -replica-of and -router are mutually exclusive")
	}
	if (*replicaOf != "" || *router != "") && (*snapshotPath != "" || *writeSnapshot != "" || *publish || *churnOn) {
		log.Fatal("geoserved: snapshot/publish/churn flags only apply to builder mode")
	}
	if *churnOn && *snapshotPath != "" {
		log.Fatal("geoserved: -churn needs the pipeline's world; it cannot run from a -snapshot cold start")
	}
	if *churnOn && *churnInterval <= 0 {
		log.Fatal("geoserved: -churn-interval must be positive")
	}
	if *churnEvents < 1 {
		log.Fatal("geoserved: -churn-events must be >= 1")
	}
	if *router != "" && *shards != 1 {
		log.Fatal("geoserved: -shards applies to builder and replica modes, not the router")
	}

	switch {
	case *replicaOf != "":
		runReplica(*addr, *replicaOf, *shards, *queueBudget, *drainTimeout, *debugAddr)
	case *router != "":
		runRouter(*addr, *router, *drainTimeout, *debugAddr)
	default:
		runBuilder(builderOpts{
			addr: *addr, seed: *seed, scale: *scale, workers: *workers,
			cacheBudget: *cacheBudget, shards: *shards, queueBudget: *queueBudget,
			snapshotPath: *snapshotPath, writeSnapshot: *writeSnapshot,
			publish: *publish, quiet: *quiet, drainTimeout: *drainTimeout,
			debugAddr: *debugAddr,
			churn:     *churnOn, churnInterval: *churnInterval,
			churnSeed: *churnSeed, churnEvents: *churnEvents,
		})
	}
}

// startDebugServer runs the runtime-introspection listener: the full
// net/http/pprof suite plus the same /metrics and /debug/tracez the
// serving listener mounts, on a separate address so profiling and
// scraping never compete with query traffic (and can be firewalled
// separately). Empty addr means no debug listener.
func startDebugServer(addr string, o *obs.Observability) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	o.Mount(mux)
	go func() {
		log.Printf("debug listener on %s (pprof, /metrics, /debug/tracez)", addr)
		if err := http.ListenAndServe(addr, mux); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("debug listener stopped: %v", err)
		}
	}()
}

// httpTimeouts bounds every server-side connection phase, so one
// stalled or malicious client can neither hold a drain hostage nor
// pin a connection forever. Populated from flags.
type httpTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	idle       time.Duration
}

var timeouts httpTimeouts

// newHTTPServer builds the server every mode listens on. Connections
// that never finish their headers die at readHeader, slow-loris bodies
// at read, and idle keep-alives at idle — which is what lets
// http.Server.Shutdown terminate instead of waiting forever on a
// client that sent half a request (TestDrainCompletesUnderStalledClient).
func newHTTPServer(addr string, h http.Handler, t httpTimeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		IdleTimeout:       t.idle,
	}
}

// serve runs the handler until SIGTERM/SIGINT, then drains: drain (when
// set) flips /healthz to failing so load balancers steer new work away,
// and http.Server.Shutdown waits for in-flight requests under the
// deadline. A rolling restart therefore loses zero answers.
func serve(addr string, h http.Handler, drain func(), timeout time.Duration) {
	srv := newHTTPServer(addr, h, timeouts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("caught %s: draining (deadline %s)", s, timeout)
		if drain != nil {
			drain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain deadline passed with requests still in flight: %v", err)
			return
		}
		log.Printf("drained clean: all in-flight requests finished")
	}()
	log.Printf("listening on %s", addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// runReplica serves the API from snapshots fetched off a builder: 503
// until the first verified epoch, then last-good-epoch serving through
// any builder outage. Each installed epoch serves from a cluster of
// the given shard count.
func runReplica(addr, builderURL string, shards, queueBudget int, drainTimeout time.Duration, debugAddr string) {
	rep := replica.New(replica.Config{BuilderURL: builderURL, Shards: shards, QueueBudget: queueBudget})
	startDebugServer(debugAddr, rep.Obs())
	go func() {
		if err := rep.Run(context.Background()); err != nil {
			log.Printf("replica sync loop stopped: %v", err)
		}
	}()
	log.Printf("replica of %s; serving 503 until the first verified epoch", builderURL)
	serve(addr, rep.Handler(), rep.Drain, drainTimeout)
}

// runRouter fans lookups over a replica fleet with health-checked
// ejection/readmission and epoch-consistent batches.
func runRouter(addr, targets string, drainTimeout time.Duration, debugAddr string) {
	var urls []string
	for _, u := range strings.Split(targets, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("geoserved: -router needs at least one replica URL")
	}
	rt := replica.NewRouter(replica.RouterConfig{Replicas: urls})
	startDebugServer(debugAddr, rt.Obs())
	go rt.Run(context.Background())
	log.Printf("routing over %d replicas: %s", len(urls), strings.Join(urls, ", "))
	serve(addr, rt.Handler(), rt.Drain, drainTimeout)
}

type builderOpts struct {
	addr          string
	seed          int64
	scale         float64
	workers       int
	cacheBudget   int
	shards        int
	queueBudget   int
	snapshotPath  string
	writeSnapshot string
	publish       bool
	quiet         bool
	drainTimeout  time.Duration
	debugAddr     string
	churn         bool
	churnInterval time.Duration
	churnSeed     int64
	churnEvents   int
}

func runBuilder(o builderOpts) {
	start := time.Now()
	var (
		snap *geoserve.Snapshot
		pipe *core.Pipeline // nil on a -snapshot cold start; churn needs it
	)
	if o.snapshotPath != "" {
		// Cold start: the pipeline never runs; load + verify the file.
		loaded, info, err := snapfile.Load(o.snapshotPath)
		if err != nil {
			log.Fatalf("geoserved: load %s: %v", o.snapshotPath, err)
		}
		snap = loaded
		log.Printf("cold start: loaded snapshot %s (epoch %d, %d bytes) from %s in %s",
			info.Digest[:12], info.Epoch, info.SizeBytes, o.snapshotPath, time.Since(start).Round(time.Millisecond))
	} else {
		p, built, err := build(o.seed, o.scale, o.workers, o.cacheBudget, o.quiet)
		if err != nil {
			log.Fatalf("geoserved: %v", err)
		}
		pipe, snap = p, built
		log.Printf("pipeline build took %s", time.Since(start).Round(time.Millisecond))
	}

	if o.writeSnapshot != "" {
		if err := snapfile.WriteFile(o.writeSnapshot, snap, 1); err != nil {
			log.Fatalf("geoserved: write %s: %v", o.writeSnapshot, err)
		}
		log.Printf("wrote snapshot %s (epoch 1) to %s", snap.Digest()[:12], o.writeSnapshot)
		if o.addr == "" {
			return
		}
	}
	if o.addr == "" {
		log.Fatal("geoserved: empty -addr without -write-snapshot serves nothing")
	}

	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{
		Shards:      o.shards,
		QueueBudget: o.queueBudget,
	})
	if err != nil {
		log.Fatalf("geoserved: %v", err)
	}
	bundle := obs.NewObservability("cluster")
	bundle.Metrics.Collect(cluster.Collect)
	handler := geoserve.NewObservedHandler(cluster, bundle)
	log.Printf("serving from %d prefix-range shards, queue budget %d",
		cluster.NumShards(), cluster.QueueBudget())
	startDebugServer(o.debugAddr, bundle)
	log.Printf("serving snapshot %s: %d /24s, %d exact addresses, %d AS footprints",
		snap.Digest()[:12], snap.NumPrefixes(), snap.NumExactIPs(), snap.NumFootprints())

	mux := http.NewServeMux()
	mux.Handle("/", handler)

	var pub *replica.Publisher
	if o.publish {
		pub = replica.NewPublisher()
		m, err := pub.Publish(snap)
		if err != nil {
			log.Fatalf("geoserved: publish: %v", err)
		}
		mux.Handle("/v1/replication/", pub.Handler())
		log.Printf("publishing replication epoch %d (%d bytes)", m.Epoch, m.SizeBytes)
	}

	// Churn: one step = draw events, delta-compile, hot-swap, publish.
	// Available on demand via POST /v1/admin/churn whenever the
	// pipeline ran; -churn additionally drives it on a timer.
	if pipe != nil {
		seed := o.churnSeed
		if seed == 0 {
			seed = o.seed
		}
		ch, err := pipe.Churner(core.ServeOptions{}, seed)
		if err != nil {
			log.Fatalf("geoserved: churn: %v", err)
		}
		cr := &churnRunner{
			pipe: pipe, ch: ch, prev: snap, events: o.churnEvents,
			cluster: cluster, pub: pub,
		}
		mux.HandleFunc("POST /v1/admin/churn", func(w http.ResponseWriter, r *http.Request) {
			res, err := cr.step()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(res)
		})
		if o.churn {
			go func() {
				tick := time.NewTicker(o.churnInterval)
				defer tick.Stop()
				for range tick.C {
					res, err := cr.step()
					if err != nil {
						log.Printf("churn step failed: %v", err)
						continue
					}
					log.Printf("churn step %d: %d events, %d/%d rows recompiled (+%d patched), %d shards re-split, snapshot %s",
						res.Step, res.Events, res.Stats.Recompiled, res.Stats.Rows, res.Stats.Patched,
						res.Resplit, res.Digest[:12])
				}
			}()
			log.Printf("continuous churn: %d events every %s (seed %d)", o.churnEvents, o.churnInterval, seed)
		}
	}

	var rebuilding atomic.Bool
	mux.HandleFunc("POST /v1/admin/rebuild", func(w http.ResponseWriter, r *http.Request) {
		newSeed, newScale := o.seed, o.scale
		if s := r.URL.Query().Get("seed"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "bad seed", http.StatusBadRequest)
				return
			}
			newSeed = v
		}
		if s := r.URL.Query().Get("scale"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v <= 0 {
				http.Error(w, "bad scale", http.StatusBadRequest)
				return
			}
			newScale = v
		}
		if !rebuilding.CompareAndSwap(false, true) {
			http.Error(w, "rebuild already in flight", http.StatusConflict)
			return
		}
		go func() {
			defer rebuilding.Store(false)
			_, fresh, err := build(newSeed, newScale, o.workers, o.cacheBudget, o.quiet)
			if err == nil {
				_, err = cluster.Swap(fresh)
			}
			if err != nil {
				log.Printf("rebuild(seed %d, scale %g) failed: %v", newSeed, newScale, err)
				return
			}
			log.Printf("hot-swapped to snapshot %s (seed %d, scale %g)",
				fresh.Digest()[:12], newSeed, newScale)
			if pub != nil {
				m, err := pub.Publish(fresh)
				if err != nil {
					log.Printf("publish after rebuild failed: %v", err)
					return
				}
				log.Printf("published replication epoch %d (%d bytes)", m.Epoch, m.SizeBytes)
			}
		}()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"status":"rebuilding","seed":%d,"scale":%g}`+"\n", newSeed, newScale)
	})

	serve(o.addr, mux, nil, o.drainTimeout)
}

// churnRunner serializes churn steps: each step draws the next batch
// of topology events, delta-compiles the serving snapshot (only dirty
// /24 intervals recomputed), hot-swaps it in and publishes the new
// epoch when replication is on. The mutex keeps the chain linear:
// steps from the background ticker and from POST /v1/admin/churn
// interleave but never race.
type churnRunner struct {
	mu      sync.Mutex
	pipe    *core.Pipeline
	ch      *churn.Churner
	prev    *geoserve.Snapshot
	events  int
	cluster *geoserve.Cluster
	pub     *replica.Publisher
}

// churnResult is the JSON answer of one applied churn step.
type churnResult struct {
	Step    int                 `json:"step"`
	Events  int                 `json:"events"`
	Digest  string              `json:"digest"`
	Stats   geoserve.DeltaStats `json:"stats"`
	Resplit int                 `json:"resplit_shards"`
	Epoch   uint64              `json:"epoch,omitempty"` // published replication epoch
}

func (cr *churnRunner) step() (churnResult, error) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	step, err := cr.ch.Next(cr.events)
	if err != nil {
		return churnResult{}, fmt.Errorf("churn step: %w", err)
	}
	next, stats, err := cr.pipe.ServeDelta(cr.prev, step)
	if err != nil {
		return churnResult{}, fmt.Errorf("churn step %d: delta compile: %w", step.N, err)
	}
	_, resplit, err := cr.cluster.SwapDelta(next, stats.Touched)
	if err != nil {
		return churnResult{}, fmt.Errorf("churn step %d: swap: %w", step.N, err)
	}
	res := churnResult{
		Step: step.N, Events: len(step.Events),
		Digest: next.Digest(), Stats: stats, Resplit: resplit,
	}
	if cr.pub != nil {
		// Identical-content steps dedupe inside Publish (no epoch bump).
		m, err := cr.pub.Publish(next)
		if err != nil {
			return churnResult{}, fmt.Errorf("churn step %d: publish: %w", step.N, err)
		}
		res.Epoch = m.Epoch
	}
	cr.prev = next
	return res, nil
}

// build runs a pipeline and compiles its serving snapshot.
func build(seed int64, scale float64, workers, cacheBudget int, quiet bool) (*core.Pipeline, *geoserve.Snapshot, error) {
	cfg := core.Config{Seed: seed, Scale: scale, Workers: workers, RouteCacheBudget: cacheBudget}
	if !quiet {
		cfg.Progress = os.Stderr
	}
	p, err := core.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	snap, err := p.ServeWith(core.ServeOptions{
		Label: fmt.Sprintf("seed%d/scale%g", seed, scale),
	})
	if err != nil {
		return nil, nil, err
	}
	return p, snap, nil
}
