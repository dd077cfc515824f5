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
// -workers caps GOMAXPROCS, the one parallelism bound (0 = one per CPU).
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
// # One world: rebuilds and continuous churn
//
// The builder holds one world: the pipeline it ran, the snapshot it
// last installed and a deterministic churn stream (internal/churn,
// seeded by the world's seed) drawing BGP announces/withdraws,
// allocation growth, interface churn and monitor loss. A churn step
// applies 8 events, delta-compiles the world's last snapshot (only the
// /24 intervals whose answers could have changed are recomputed),
// hot-swaps the result (Cluster.SwapDelta reports how many shards own
// a touched interval) and, with -publish, publishes it as a
// delta-served replication epoch. -churn steps on a timer, POST
// /v1/admin/churn on demand:
//
//	geoserved -scale 0.1 -publish -churn -churn-interval 5s
//
// POST /v1/admin/rebuild builds a new world (possibly another seed or
// scale) in the background, hot-swaps its snapshot in (one pointer
// store: no answer or batch mixes two epochs, readers never pause) and
// replaces the world the churn stream continues from. Every epoch
// names its world's build (label seed%d/scale%g). One rebuild runs at
// a time (409 while one is in flight). A -snapshot cold start has no
// world until a rebuild, so /v1/admin/churn answers 409 until then.
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
// A -publish builder publishes every epoch it installs — a rebuild's
// or a churn step's, swapped in and published as one step — retains a
// window of recent epochs, and serves deltas between retained epochs
// (/v1/replication/delta/{from}/{to}) so replicas near the head move
// only the changed /24 intervals. Replicas verify every fetched file
// or applied delta (any delta failure falls back to the full fetch),
// warm a fresh snapshot up before the atomic swap, keep serving their
// last-good epoch through builder outages (stale_epoch on /statusz)
// and resume interrupted downloads. The router forwards every request
// — a JSON batch like a single lookup or a binary frame — whole to one
// replica at the plan epoch (so no answer set blends two epochs, and
// validation is the replica's): the one with the fewest requests
// outstanding, under a deadline, a global retry budget and a
// per-replica circuit breaker. It sheds with 503 + Retry-After only
// when no routable replica holds a complete epoch. DESIGN.md
// § "Replicated serving" has the mechanisms.
//
// The binary endpoints speak the geoserve wire protocol (see the wire
// protocol section of DESIGN.md): length-prefixed batches of IPv4
// addresses answered by fixed-width records copied straight out of
// the snapshot's record slabs, each frame tagged with the serving
// snapshot's epoch (bench's fleet-bin workload drives them).
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
//
// All modes drain on SIGTERM/SIGINT: replicas and routers fail
// /healthz with status "draining" so load balancers steer away, then
// http.Server.Shutdown waits for in-flight requests under
// -drain-timeout (default 10s) before the process exits — a rolling
// restart loses zero answers. Every mode's listener bounds connection
// phases (-read-header-timeout, -read-timeout, -idle-timeout) so a
// stalled client cannot pin a connection or hold a drain hostage; a
// negative bound, or a -drain-timeout that is not positive, is refused.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"geonet/internal/churn"
	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/replica"
	"geonet/internal/geoserve/snapfile"
	"geonet/internal/obs"
)

// options holds every flag's value. validate checks the set as a
// whole; the mode main selects reads what applies to it.
type options struct {
	addr          string
	seed          int64
	scale         float64
	workers       int
	shards        int
	queueBudget   int
	snapshotPath  string
	writeSnapshot string
	publish       bool
	churn         bool
	churnInterval time.Duration
	replicaOf     string
	router        string
	drainTimeout  time.Duration
	debugAddr     string
	quiet         bool
	timeouts      httpTimeouts
}

// bindFlags declares geoserved's flags on fs; after fs.Parse the
// returned options hold their values.
func bindFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address (empty: exit after -write-snapshot)")
	fs.Int64Var(&o.seed, "seed", 1, "world seed")
	fs.Float64Var(&o.scale, "scale", 0.1, "world scale relative to the paper's Skitter snapshot")
	fs.IntVar(&o.workers, "workers", 0, "GOMAXPROCS cap: bounds pipeline, compile and serving parallelism (0 = one per CPU)")
	fs.IntVar(&o.shards, "shards", 1, "prefix-range shards: ranges for per-shard accounting and shedding, not parallelism (1 = unsharded)")
	fs.IntVar(&o.queueBudget, "queuebudget", 0, "per-shard in-flight batch budget before shedding (0 = default)")
	fs.StringVar(&o.snapshotPath, "snapshot", "", "cold start: load this snapshot file instead of running the pipeline")
	fs.StringVar(&o.writeSnapshot, "write-snapshot", "", "write the serving snapshot to this file (then exit if -addr is empty)")
	fs.BoolVar(&o.publish, "publish", false, "serve /v1/replication/* so replicas can follow this builder")
	fs.BoolVar(&o.churn, "churn", false, "continuously evolve the world: apply one churn step every -churn-interval")
	fs.DurationVar(&o.churnInterval, "churn-interval", 5*time.Second, "delay between background churn steps (-churn)")
	fs.StringVar(&o.replicaOf, "replica-of", "", "run as a replica of this builder URL (no pipeline)")
	fs.StringVar(&o.router, "router", "", "run as a router over these comma-separated replica URLs (no pipeline)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "max wait for in-flight requests on SIGTERM/SIGINT")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listener for net/http/pprof plus /metrics and /debug/tracez (empty: observability rides on -addr only)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress build progress")
	fs.DurationVar(&o.timeouts.readHeader, "read-header-timeout", 10*time.Second, "max wait for a request's headers (0 = unbounded; guards drain against stalled clients)")
	fs.DurationVar(&o.timeouts.read, "read-timeout", 5*time.Minute, "max lifetime of one request read, including streaming bodies (0 = unbounded)")
	fs.DurationVar(&o.timeouts.idle, "idle-timeout", 2*time.Minute, "max keep-alive idle time per connection (0 = unbounded)")
	return o
}

// validate rejects flag sets that name no mode or mix two, before
// anything is built or bound.
func validate(o *options) error {
	if err := (core.Config{Scale: o.scale}).Validate(); err != nil {
		return fmt.Errorf("geoserved: -scale: %w", err)
	}
	replicaOrRouter := o.replicaOf != "" || o.router != ""
	switch {
	case o.workers < 0:
		return errors.New("geoserved: -workers must be >= 0")
	case o.shards < 1:
		return errors.New("geoserved: -shards must be >= 1")
	case o.queueBudget < 0:
		return errors.New("geoserved: -queuebudget must be >= 0 (0 = default)")
	case o.timeouts.readHeader < 0:
		return errors.New("geoserved: -read-header-timeout must be >= 0 (0 = unbounded)")
	case o.timeouts.read < 0:
		return errors.New("geoserved: -read-timeout must be >= 0 (0 = unbounded)")
	case o.timeouts.idle < 0:
		return errors.New("geoserved: -idle-timeout must be >= 0 (0 = unbounded)")
	case o.drainTimeout <= 0:
		return errors.New("geoserved: -drain-timeout must be positive")
	case o.replicaOf != "" && o.router != "":
		return errors.New("geoserved: -replica-of and -router are mutually exclusive")
	case replicaOrRouter && (o.snapshotPath != "" || o.writeSnapshot != "" || o.publish || o.churn):
		return errors.New("geoserved: snapshot/publish/churn flags only apply to builder mode")
	case o.churn && o.snapshotPath != "":
		return errors.New("geoserved: -churn needs the pipeline's world; it cannot run from a -snapshot cold start")
	case o.churn && o.churnInterval <= 0:
		return errors.New("geoserved: -churn-interval must be positive")
	case o.router != "" && o.shards != 1:
		return errors.New("geoserved: -shards applies to builder and replica modes, not the router")
	case o.router != "" && len(routerURLs(o.router)) == 0:
		return errors.New("geoserved: -router needs at least one replica URL")
	case !replicaOrRouter && o.addr == "" && o.writeSnapshot == "":
		return errors.New("geoserved: empty -addr without -write-snapshot serves nothing")
	}
	return nil
}

// routerURLs splits -router's comma-separated list into base URLs,
// dropping blanks and trailing slashes.
func routerURLs(targets string) []string {
	var urls []string
	for _, u := range strings.Split(targets, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := validate(o); err != nil {
		log.Fatal(err)
	}
	runtime.GOMAXPROCS(o.workers) // 0 leaves it at one per CPU
	switch {
	case o.replicaOf != "":
		rep := replica.New(replica.Config{BuilderURL: o.replicaOf, Shards: o.shards, QueueBudget: o.queueBudget})
		log.Printf("replica of %s; serving 503 until the first verified epoch", o.replicaOf)
		serve(o, rep.Handler(), rep.Obs(), rep.Run, rep.Drain)
	case o.router != "":
		urls := routerURLs(o.router)
		rt := replica.NewRouter(replica.RouterConfig{Replicas: urls})
		log.Printf("routing over %d replicas: %s", len(urls), strings.Join(urls, ", "))
		serve(o, rt.Handler(), rt.Obs(), rt.Run, rt.Drain)
	default:
		runBuilder(o)
	}
}

// debugServer builds the runtime-introspection listener: the full
// net/http/pprof suite plus the same /metrics and /debug/tracez the
// serving listener mounts, on a separate address so profiling and
// scraping never compete with query traffic (and can be firewalled
// separately). It bounds connection phases like every other listener
// (TestDebugListenerReapsStalledClient).
func debugServer(addr string, bundle *obs.Observability, t httpTimeouts) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	bundle.Mount(mux)
	return newHTTPServer(addr, mux, t)
}

// httpTimeouts bounds every server-side connection phase, so one
// stalled or malicious client can neither hold a drain hostage nor
// pin a connection forever. Populated from flags.
type httpTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	idle       time.Duration
}

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

// serve is every mode's lifecycle. It runs the mode's background loop
// (a replica's sync loop, the router's probes, a -churn builder's
// ticker; nil for none) until serve returns, and serves h (and, with
// -debug-addr, the mode's bundle on the debug listener) until
// SIGTERM/SIGINT. Then it drains: drain (when set) flips /healthz to
// failing so load balancers steer new work away, and
// http.Server.Shutdown waits for in-flight requests under the
// deadline. A rolling restart therefore loses zero answers.
func serve(o *options, h http.Handler, bundle *obs.Observability, run func(context.Context) error, drain func()) {
	if run != nil {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		go run(ctx)
	}
	if o.debugAddr != "" {
		dbg := debugServer(o.debugAddr, bundle, o.timeouts)
		log.Printf("debug listener on %s (pprof, /metrics, /debug/tracez)", o.debugAddr)
		go func() { log.Printf("debug listener stopped: %v", dbg.ListenAndServe()) }()
	}
	srv := newHTTPServer(o.addr, h, o.timeouts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("caught %s: draining (deadline %s)", s, o.drainTimeout)
		if drain != nil {
			drain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain deadline passed with requests still in flight: %v", err)
			return
		}
		log.Printf("drained clean: all in-flight requests finished")
	}()
	log.Printf("listening on %s", o.addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

func runBuilder(o *options) {
	start := time.Now()
	b := new(builder)
	var snap *geoserve.Snapshot
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
		w, err := newWorld(o.seed, o.scale, o.quiet)
		if err != nil {
			log.Fatalf("geoserved: %v", err)
		}
		b.world, snap = w, w.snap
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

	cluster, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{
		Shards:      o.shards,
		QueueBudget: o.queueBudget,
	})
	if err != nil {
		log.Fatalf("geoserved: %v", err)
	}
	b.cluster = cluster
	bundle := obs.NewObservability("cluster")
	bundle.Metrics.Collect(cluster.Collect)
	handler := geoserve.NewObservedHandler(cluster, bundle)
	log.Printf("serving from %d prefix-range shards, queue budget %d",
		cluster.NumShards(), cluster.QueueBudget())
	log.Printf("serving snapshot %s: %d /24s, %d exact addresses, %d AS footprints",
		snap.Digest()[:12], snap.NumPrefixes(), snap.NumExactIPs(), snap.NumFootprints())

	mux := http.NewServeMux()
	mux.Handle("/", handler)

	if o.publish {
		b.pub = replica.NewPublisher()
		m, err := b.pub.Publish(snap)
		if err != nil {
			log.Fatalf("geoserved: publish: %v", err)
		}
		mux.Handle("/v1/replication/", b.pub.Handler())
		log.Printf("publishing replication epoch %d (%d bytes)", m.Epoch, m.SizeBytes)
	}

	mux.HandleFunc("POST /v1/admin/churn", func(w http.ResponseWriter, r *http.Request) {
		res, err := b.step()
		switch {
		case errors.Is(err, errNoWorld):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(res)
		}
	})
	mux.HandleFunc("POST /v1/admin/rebuild", b.rebuildHandler(o))

	var churnLoop func(context.Context) error // nil: steps only on demand
	if o.churn {
		churnLoop = func(ctx context.Context) error {
			tick := time.NewTicker(o.churnInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-tick.C:
				}
				res, err := b.step()
				if err != nil {
					log.Printf("churn step failed: %v", err)
					continue
				}
				log.Printf("churn step %d: %d events, %d/%d rows recompiled (+%d patched), %d shards re-split, snapshot %s",
					res.Step, res.Events, res.Stats.Recompiled, res.Stats.Rows, res.Stats.Patched,
					res.Resplit, res.Digest[:12])
			}
		}
		log.Printf("continuous churn: %d events every %s", churnEvents, o.churnInterval)
	}
	serve(o, mux, bundle, churnLoop, nil)
}

// churnEvents is how many topology events one churn step applies.
const churnEvents = 8

// errNoWorld is a churn step's error on a -snapshot cold start before
// any rebuild: there is no pipeline for the churn stream to extend.
var errNoWorld = errors.New("no world to churn: a -snapshot cold start has none until POST /v1/admin/rebuild")

// world is one build the builder serves and extends: a pipeline, the
// snapshot it last installed and the churn stream continuing from it.
type world struct {
	pipe *core.Pipeline
	snap *geoserve.Snapshot
	ch   *churn.Churner
}

// newWorld runs a pipeline and compiles its snapshot and churn stream
// from one Source, so every epoch of the world, churned or not, names
// the build it came from. The stream is seeded by the world.
func newWorld(seed int64, scale float64, quiet bool) (*world, error) {
	cfg := core.Config{Seed: seed, Scale: scale}
	if !quiet {
		cfg.Progress = os.Stderr
	}
	p, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	src, err := p.ServeSource(core.ServeOptions{Label: fmt.Sprintf("seed%d/scale%g", seed, scale)})
	if err != nil {
		return nil, err
	}
	snap, err := geoserve.Compile(src)
	if err != nil {
		return nil, err
	}
	ch, err := churn.New(p.Internet, src, seed)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	return &world{pipe: p, snap: snap, ch: ch}, nil
}

// builder holds the epoch the builder serves and publishes, and the
// world it came from. Every install — a rebuild's whole new world or a
// churn step extending the current one — runs under mu: the swap and
// the publish are one critical section (interleaved with another
// install's, the builder would serve one snapshot while replicas were
// sent the other), and a step holds mu from drawing its events to
// installing their epoch, so steps from the ticker and from POST
// /v1/admin/churn never race and a step never extends a world a
// rebuild has replaced.
type builder struct {
	mu      sync.Mutex
	cluster *geoserve.Cluster
	pub     *replica.Publisher // nil without -publish
	world   *world             // nil on a -snapshot cold start until a rebuild

	rebuilding atomic.Bool // a POST /v1/admin/rebuild is building
}

// rebuildHandler serves POST /v1/admin/rebuild[?seed=N&scale=F]: it
// rejects a seed or scale core.Run would refuse with 400, then builds
// the new world in the background and installs it in place of the
// current one.
func (b *builder) rebuildHandler(o *options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
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
			if err != nil || (core.Config{Scale: v}).Validate() != nil {
				http.Error(w, "bad scale", http.StatusBadRequest)
				return
			}
			newScale = v
		}
		if !b.rebuilding.CompareAndSwap(false, true) {
			http.Error(w, "rebuild already in flight", http.StatusConflict)
			return
		}
		go func() {
			defer b.rebuilding.Store(false)
			fresh, err := newWorld(newSeed, newScale, o.quiet)
			var m replica.Manifest
			if err == nil {
				b.mu.Lock() // held through the logs: a churn step moves fresh.snap on
				defer b.mu.Unlock()
				_, m, err = b.install(fresh, fresh.snap, nil)
			}
			if err != nil {
				log.Printf("rebuild(seed %d, scale %g) failed: %v", newSeed, newScale, err)
				return
			}
			log.Printf("hot-swapped to snapshot %s (seed %d, scale %g)",
				fresh.snap.Digest()[:12], newSeed, newScale)
			if b.pub != nil {
				log.Printf("published replication epoch %d (%d bytes)", m.Epoch, m.SizeBytes)
			}
		}()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"status":"rebuilding","seed":%d,"scale":%g}`+"\n", newSeed, newScale)
	}
}

// install makes snap, an epoch of w, the serving and published epoch,
// and w the world later churn steps extend from snap. delta is the
// compile's stats when snap was delta-compiled from w's last snapshot
// (the swap then reports how many shards it re-split), nil for a whole
// new snapshot. A "publish:" error leaves snap serving here and
// unpublished. The caller holds b.mu.
func (b *builder) install(w *world, snap *geoserve.Snapshot, delta *geoserve.DeltaStats) (resplit int, m replica.Manifest, err error) {
	if delta != nil {
		_, resplit, err = b.cluster.SwapDelta(snap, delta.Touched)
	} else {
		_, err = b.cluster.Swap(snap)
	}
	if err != nil {
		return 0, m, fmt.Errorf("swap: %w", err)
	}
	w.snap, b.world = snap, w
	if b.pub != nil {
		// Identical content dedupes inside Publish (no epoch bump).
		if m, err = b.pub.Publish(snap); err != nil {
			return resplit, m, fmt.Errorf("publish: %w", err)
		}
	}
	return resplit, m, nil
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

// step draws the current world's next batch of topology events,
// delta-compiles the snapshot that world last installed (only dirty
// /24 intervals recomputed) and installs the result.
func (b *builder) step() (churnResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.world
	if w == nil {
		return churnResult{}, errNoWorld
	}
	step, err := w.ch.Next(churnEvents)
	if err != nil {
		return churnResult{}, fmt.Errorf("churn step: %w", err)
	}
	next, stats, err := w.pipe.ServeDelta(w.snap, step)
	if err != nil {
		return churnResult{}, fmt.Errorf("churn step %d: delta compile: %w", step.N, err)
	}
	resplit, m, err := b.install(w, next, &stats)
	if err != nil {
		return churnResult{}, fmt.Errorf("churn step %d: %w", step.N, err)
	}
	return churnResult{
		Step: step.N, Events: len(step.Events),
		Digest: next.Digest(), Stats: stats, Resplit: resplit, Epoch: m.Epoch,
	}, nil
}
