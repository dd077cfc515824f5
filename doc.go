// Package geonet is a full reproduction of "On the Geographic Location
// of Internet Resources" (Lakhina, Byers, Crovella, Matta — IMC 2002).
//
// The paper measured where Internet routers, links and autonomous
// systems physically sit: router density grows superlinearly with
// population density, 75-95% of links form in a distance-sensitive
// (exponentially decaying) regime, and AS geographic footprints show a
// long-tailed, two-regime dispersion structure.
//
// This module rebuilds the paper's entire measurement stack as
// simulatable substrates — a synthetic ground-truth Internet, a
// packet-level traceroute simulator, Skitter and Mercator collectors,
// IxMapper- and EdgeScape-style geolocation tools, RFC 1876 DNS LOC, a
// whois registry and RouteViews-style BGP tables — then re-measures
// every table and figure through that pipeline. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// Entry points: internal/core.Run builds the pipeline;
// internal/core.Experiments regenerates the paper's tables and figures;
// cmd/paperrepro is the command-line driver, whose subcommands locate
// (addresses on stdin answered exactly as GET /v1/locate would),
// topogen (waxman, er, ba and geogen test topologies) and sweep (many
// pipelines as one workload, below) replace the old single-purpose
// tools; the Example functions of internal/core and
// internal/topogen are the runnable walkthroughs; bench_test.go holds
// one benchmark per table and figure.
//
// # Parallelism
//
// The pipeline fans out across cores, and GOMAXPROCS is the one bound
// on all of it; the -workers flag of paperrepro (for every subcommand,
// sweep included) and geoserved sets it (0 leaves it at one per CPU). Independent stages run
// concurrently — the two BGP epoch assemblies, the Skitter and
// Mercator collections, and the four Table-I dataset-mapper
// combinations — and the hot kernels inside them fan out too: Skitter
// probes per-monitor, Mercator traces in fixed-size batches, the
// serving compile per row, and the Section V pairwise-distance
// histogram over triangle-strided chunks with a latitude-band prune.
// All of it is built on internal/parallel (bounded task groups,
// chunked ForEach, and a map-reduce whose per-chunk accumulators merge
// in a fixed order), whose every primitive runs at most GOMAXPROCS
// goroutines at once, so a (seed, scale) pair produces byte-identical
// reports at any GOMAXPROCS — the property core.TestWorkersDeterminism
// locks in by running pipeline and experiments at 1 and at 8.
//
// # Scenario sweeps and the golden regression corpus
//
// The paper's findings are claims about one synthetic world; the
// scenario engine asks how they move across many. internal/scenario
// runs whole pipelines as one declarative workload: a scenario.Spec
// names a variant (seed and scale, plus the netgen ablations —
// skitter monitor count, AS count factor, extra-link density,
// distance-independent link fraction, and uniform "Waxman" placement),
// a scenario.Matrix expands axis lists into the cross product in a
// fixed order, and scenario.Sweep executes
// the specs concurrently — shared-nothing pipelines, at most
// GOMAXPROCS at once, whose goroutines share the same GOMAXPROCS
// threads — then reduces results in spec order. Every axis changes the
// world; none only changes run time. Each scenario yields a core.Digest (a SHA-256 over every
// experiment's rendered tables and figure data) and headline metrics;
// the report's sensitivity tables show how Table-I mapper agreement
// and the Section V distance-preference exponent move along each axis.
//
// The driver is paperrepro's sweep subcommand, which shares the
// top-level -seed, -scale, -workers and -quiet:
//
//	go run ./cmd/paperrepro sweep -seeds 1,2,3 -scales 0.02,0.05
//	go run ./cmd/paperrepro -scale 0.02 sweep -seeds 1,2 -placement population,uniform
//	go run ./cmd/paperrepro sweep -spec specs.json -json
//
// A sweep re-measures the paper; it runs no churn. Delta compiles
// across churn steps are pinned by internal/churn's golden corpus.
//
// The digests double as the permanent regression net. The files under
// internal/scenario/testdata/golden pin the digest and metrics of a
// fixed spec set (scenario.TestGoldenCorpus), and
// core.TestConfigDigestPinned pins the scale-0.02 digest as a
// constant — so any change to pipeline output anywhere fails tests
// until regenerated with
//
//	go test ./internal/scenario -run TestGoldenCorpus -update
//
// and reviewed as an explicit golden diff.
//
// # Online serving (geoserve)
//
// The Section III-B mappers also run as an online query service.
// internal/geoserve compiles a finished pipeline
// (core.Pipeline.Serve) into an immutable snapshot — per /20 leaf
// group, exact precomputed answers for every known interface address
// and prefix-level answers for the generic hosts of each /24, each
// carrying location, method attribution, BGP origin AS and a
// confidence radius from the AS's geographic footprint — published by
// the one serving type, geoserve.Cluster, through an atomic pointer
// for lock-free concurrent lookups (three loads through a /16 → /24 →
// host-bitmap directory and a popcount, zero allocations) and
// hot-swappable when a new pipeline finishes building
// in the background. cmd/geoserved serves
// the HTTP JSON API (locate, batch, AS footprints, healthz, statusz,
// admin rebuild):
//
//	go run ./cmd/geoserved -addr :8080 -scale 0.1
//
// and the nested bench module (bench/, go run -C bench .) measures
// running nodes end to end: in process, through a router over
// replicas, and under churn. A cluster has -shards N prefix-range shards (default
// one, the unsharded server): N contiguous cuts of the /24 interval
// index, each an accounting range with its own metrics and
// load-shedding budget (429 when a range a batch touches is at
// budget) — not workers: every request is answered by the goroutine
// that brought it, from the one snapshot a rebuild publishes with a
// single pointer store. Snapshot digests follow the same determinism discipline as
// report digests; geoserve's golden tests pin them byte-for-byte
// across GOMAXPROCS settings, hot-swaps and — the shard-count invariance —
// across cluster topologies {1, 2, 3, 8}, each checked against
// Snapshot.Lookup.
//
// # Replicated serving (snapfile, replica, faultinject)
//
// Snapshots also travel between processes. internal/geoserve/snapfile
// is the versioned on-disk format — length-prefixed sections holding
// the snapshot's own tables, each mapper's answers as the slab of
// 32-byte records it serves from, under a trailer that carries both a
// whole-file hash and the snapshot's
// content digest, so Load verifies (never trusts) every byte and
// rejects truncated, corrupt or version-skewed files with typed
// errors; a fuzzed loader guarantees no input panics or loads with a
// wrong digest. internal/geoserve/replica builds a serving fleet on
// top: a builder publishes digest-named epochs over HTTP
// (/v1/replication/*, Range-resumable), replicas run a fetch → verify
// → swap loop under capped jittered backoff (a bad fetch leaves the
// last-good epoch serving; a dead builder leaves replicas serving
// stale and saying so), and a router fans lookups over the fleet with
// health-checked ejection/readmission, every request answered whole by
// one replica at the plan epoch (so no batch blends epochs), and
// 503 + Retry-After only when no healthy replica holds a complete
// epoch. geoserved grows the matching modes (-write-snapshot,
// -snapshot cold start, -publish, -replica-of, -router), and
// cmd/geoserved's TestFleetRealProcesses runs them as real processes;
// internal/faultinject is the
// deterministic chaos layer (seeded drops, truncations, bit-flips,
// latency, mid-transfer resets over in-memory HTTP) whose suite proves
// the degraded modes, and the replication golden pins that a replica
// serving a fetched snapshot answers byte-identically to the builder
// that compiled it.
//
// Run the benchmark suite with
//
//	go test -bench=. -benchmem
//
// for a look while working. The repo's benchmark is the nested module
// bench/ (BENCHMARK.json, bench/README.md): four workloads, a ladder
// of per-layer rungs, fingerprinted result files and -compare. The
// table/figure benches analyse a shared pipeline built at the paper's
// full scale; pass -short (or set GEONET_BENCH_SCALE) to shrink it.
// Compare BenchmarkPipelineFull against BenchmarkPipelineFullSerial to
// measure the parallel speedup on your hardware.
package geonet
