// Package geoserve is the online serving layer over the reproduction
// pipeline: it compiles a finished pipeline's geolocation knowledge —
// both Section III-B mappers, the whois registry, DNS LOC, the BGP
// origin table and the per-AS footprints of Section VI — into one
// immutable Snapshot, and answers lookups over it at memory speed. What it compiles is a Source: the mappers, the BGP table and
// two ascending address sets (the allocated /24s and the public
// interface addresses). It never reads the simulated ground truth.
//
// A Snapshot is its leaf groups, ascending: one per /20 of the address
// space that holds a row, each holding its allocated /24s, its known
// interface addresses and one page of records per mapper, a row per
// key. Every known interface address carries an exact precomputed
// answer per mapper; every other address in an allocated /24 falls
// back to that prefix's precomputed prefix-level answer (what the
// mapper says about a generic, PTR-less host in the block); addresses
// outside the allocated space miss. Answers carry the mapped location,
// the method that produced it (feed/hostname/loc/whois), the BGP
// origin AS and a confidence-style radius derived from the origin AS's
// geographic footprint (analysis.Footprints). A lookup is three loads
// through the snapshot's /16 → /24 → host-bitmap directory and
// allocates nothing.
//
// Snapshots are immutable after Compile, and one type serves them:
// a Cluster publishes a snapshot through an atomic.Pointer, so reads
// are lock-free and concurrent, and when a new pipeline (different
// seed, scale or ablation) finishes building in the background the
// Cluster hot-swaps to its snapshot without pausing readers.
// NewHandler exposes the HTTP API that cmd/geoserved serves: the JSON
// endpoints, plus the binary wire protocol (/v1/locate/bin batches and
// /v1/locate/stream full-duplex chunk streams) whose
// epoch-tagged fixed-width answer frames are copied straight out of
// the snapshot's record pages — the 32-byte record is the one stored
// form of an answer (record.go), shared with the snapfile formats; see
// wire.go and the wire-protocol section of DESIGN.md.
//
// NewCluster splits a snapshot into N prefix-range shards — contiguous
// cuts of the ascending allocated /24s balanced by /24 count.
// A shard is an accounting range (an address range with its own
// metrics and in-flight budget), not a copy of any index and not a
// unit of parallelism: every lookup, single or in a batch, runs the
// same Snapshot lookup code on the goroutine that asked, and the
// unsharded server is the 1-shard Cluster (NewEngine, a name kept for
// bench/). A lookup is counted on the range owning its address (zero
// allocations); a batch is admitted against the ranges it touches (one
// at budget sheds it whole, 429, instead of queueing unboundedly) and
// charges each the lookups that fell in it. The epoch guard is one
// pointer: a snapshot and its shard cuts are published together, every
// request loads them once, so no answer or answer set blends two
// snapshots. For any shard count the cluster's answers equal
// Snapshot.Lookup's (TestGoldenShardInvariance).
//
// Determinism discipline: compiling parallelizes over per-row result
// slots only, so a snapshot's content — pinned by Digest, a SHA-256
// over every table in the layout — is byte-identical at any worker
// count, and identical rebuilds of the same pipeline swap in with the
// same digest (TestGoldenServing).
//
// There is one compile path, and it is a derivation: it answers the
// leaf groups that may have changed and hands them to Derive, the one
// constructor of a Snapshot. Under continuous topology churn
// (internal/churn) it resumes from the previous snapshot: CompileDelta
// recomputes the leaf groups whose keys changed (interface churn,
// allocation growth) and, elsewhere, the rows under the step's dirty
// routes and allocations, patches footprint radii, and shares every
// other group's keys and pages; Compile is the same path with no previous
// snapshot, so every group is answered. A delta-compiled snapshot is
// byte-identical (same Digest) to Compile of the same source;
// Cluster.SwapDelta then publishes it under the same epoch guard and
// reports how many shards owned a touched interval. The golden churn
// corpus (churn.TestGoldenChurnCorpus) pins the identity at every
// step, and TestChurnWireChaos races wire batches against a live churn
// stream. Compiled and loaded snapshots meet one content check: both
// are derived, and Derive holds every new row to the same rules.
//
// Every handler carries the internal/obs observability layer: serving,
// shard, wire-protocol and epoch-swap metrics exposed in Prometheus
// text form at GET /metrics (deterministic families, labels and bucket
// layouts, pinned by replica.TestGoldenMetricsFamilies), and
// request-scoped tracing at GET /debug/tracez — a request carrying an
// X-Geo-Trace header records per-hop spans (serve.batch, wire.encode,
// cluster.serve) into a bounded in-memory ring with a slow-request
// retention bias. Requests without the header pay one header lookup
// and nothing else; the hot paths stay zero-allocation with the full
// observability layer attached (TestLookupZeroAlloc). Lookup and
// per-method counts are exact — single lookups add to core-local
// counter stripes that scrapes and Status fold by summing
// (TestLookupCountsExact) — while single-lookup latency and the
// windowed QPS come from one timed lookup in 64 per stripe, weighted
// by the lookups it stands for; a batch is timed once, as a whole.
// Cluster.Status is the one computation of all of it: /statusz is its
// JSON and /metrics is Status.Emit of the same struct. See metrics.go
// and DESIGN.md § Observability. NewHandler mints a fresh obs bundle
// with the cluster's collector on it; NewObservedHandler accepts a
// caller-owned bundle, so a replica building a handler per installed
// epoch registers one collector, once, and keeps one continuous scrape.
package geoserve

import (
	"fmt"
	"strconv"

	"geonet/internal/geo"
)

// Answer is one lookup result. It is a plain value (no heap
// references beyond static method-name strings), so the hit path
// allocates nothing.
type Answer struct {
	// IP is the queried address.
	IP uint32
	// Found reports whether the mapper places the address.
	Found bool
	// Exact is true when the answer was precomputed for this specific
	// address (a known interface); false for prefix-level answers.
	Exact bool
	// Loc is the mapped location (zero when !Found).
	Loc geo.Point
	// Method attributes the answer: one of geoloc's Method* constants,
	// or "" when !Found.
	Method string
	// ASN is the BGP origin AS of the covering prefix (0 when the
	// address has no covering route). Known even for unmapped
	// addresses inside allocated space.
	ASN int
	// RadiusMi is the equivalent-circle radius of the origin AS's
	// geographic footprint under this mapper — a confidence-style
	// error bound on Loc (0 when the AS is unknown or has no
	// footprint).
	RadiusMi float64
}

// BuildInfo identifies the pipeline a snapshot was compiled from. It
// is served by /healthz and /statusz but excluded from Digest, so
// snapshot identity is content identity.
type BuildInfo struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Label optionally names the scenario ("seed1/scale0.02/...").
	Label string `json:"label,omitempty"`
}

// ParseIPv4 parses a dotted-quad IPv4 address the way net/netip
// does: four decimal octets, none with a leading zero (some parsers
// read 010 as octal 8, so "010.1.2.3" is refused, not guessed at).
func ParseIPv4(s string) (uint32, error) {
	var ip uint32
	part, digits, dots := uint32(0), 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			part = part*10 + uint32(c-'0')
			digits++
			if part > 255 || digits == 2 && part < 10 {
				return 0, fmt.Errorf("bad IPv4 address %q", s)
			}
		case c == '.':
			if digits == 0 || dots == 3 {
				return 0, fmt.Errorf("bad IPv4 address %q", s)
			}
			ip = ip<<8 | part
			part, digits = 0, 0
			dots++
		default:
			return 0, fmt.Errorf("bad IPv4 address %q", s)
		}
	}
	if dots != 3 || digits == 0 {
		return 0, fmt.Errorf("bad IPv4 address %q", s)
	}
	return ip<<8 | part, nil
}

// FormatIPv4 renders an address in dotted-quad form.
func FormatIPv4(ip uint32) string { return string(appendIPv4(nil, ip)) }

// appendIPv4 appends the dotted-quad form of ip, allocation-free when
// b has capacity (the JSON single-lookup hot path).
func appendIPv4(b []byte, ip uint32) []byte {
	b = strconv.AppendUint(b, uint64(ip>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64((ip>>16)&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64((ip>>8)&0xff), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(ip&0xff), 10)
}
