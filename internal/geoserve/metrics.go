package geoserve

import (
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/obs"
)

// maxMappers bounds the per-mapper method counters; snapshots compile
// two mappers today, lookups under further ones are counted but not
// attributed.
const maxMappers = 4

// ringSeconds sizes the sliding-window QPS ring.
const ringSeconds = 16

const (
	// numStripes is how many counter stripes a metrics holds; more Ps
	// than stripes share, which costs speed, never counts.
	numStripes = 8
	// samplePeriod: a stripe times its 1st, 65th, 129th… single lookup.
	samplePeriod = 64
)

// stripe is one core-local slice of the exact counters. The counters
// lead and the padding trails, so at any 8-byte alignment two stripes'
// counters never share a 64-byte line.
type stripe struct {
	// singles counts single lookups and is the sampling counter;
	// batched counts lookups folded by countBatch.
	singles atomic.Uint64
	batched atomic.Uint64
	methods [maxMappers][numMethods]atomic.Uint64
	_       [256 - 8*(2+maxMappers*int(numMethods))]byte
}

// metrics aggregates the serving counters /statusz and /metrics report.
// Lookup and method counts are exact: a caller adds to a stripe it
// reaches with per-P affinity and readers sum the stripes. Latency and
// the QPS ring are fed per batch, and on the single-lookup path by
// one timed lookup in samplePeriod per stripe, weighted by the lookups
// it stands for. Nothing here blocks or allocates.
type metrics struct {
	stripes [numStripes]stripe
	// free hands a P the stripe it used last (sync.Pool keeps one item
	// per P); next deals the fixed array round-robin when the pool is
	// empty or the GC has cleared it. Two Ps may end up on one stripe:
	// the counters are atomic, so that is slower, never wrong.
	free sync.Pool
	next atomic.Uint32
	lat  obs.Histogram
	// ring cells hold unix second<<32 | lookups in that second, one
	// word so a second boundary cannot separate the two.
	ring [ringSeconds]atomic.Uint64
}

func (m *metrics) acquire() *stripe {
	if st, _ := m.free.Get().(*stripe); st != nil {
		return st
	}
	return &m.stripes[m.next.Add(1)%numStripes]
}

// lookupTick is one single lookup between begin and end.
type lookupTick struct {
	st *stripe
	// weight is 0 unless this lookup is its stripe's latency sample;
	// then it is the lookups the sample stands for (itself and the
	// untimed ones since the previous sample) and start is set.
	weight uint64
	start  time.Time
}

// begin counts one single lookup and reads the clock only if it is a
// sample. The first lookup on a stripe is one, so latency is reported
// as soon as anything has been served.
func (m *metrics) begin() lookupTick {
	t := lookupTick{st: m.acquire()}
	if n := t.st.singles.Add(1); n%samplePeriod == 1 {
		t.weight = min(n, samplePeriod) // the first stands for itself alone
		t.start = time.Now()
	}
	return t
}

// end attributes the lookup begun as t to its mapper and method and,
// for a sample, records its latency.
func (m *metrics) end(t lookupTick, mapper int, code method) {
	if mapper >= 0 && mapper < maxMappers {
		t.st.methods[mapper][code].Add(1)
	}
	m.free.Put(t.st)
	if t.weight != 0 {
		m.lat.RecordN(time.Since(t.start), t.weight)
		m.ringAdd(t.start, t.weight)
	}
}

// countBatch counts n batched lookups; recordBatch then attributes
// them.
func (m *metrics) countBatch(n uint64) {
	st := m.acquire()
	st.batched.Add(n)
	m.free.Put(st)
}

// recordBatch folds a batch's share, counted by countBatch, into the
// metrics: n lookups entering the latency histogram at perLookup each,
// and the per-method counts the caller accumulated locally (nil when
// another shard range takes the batch's).
func (m *metrics) recordBatch(mapper int, counts *[numMethods]uint32, n uint64, perLookup time.Duration, now time.Time) {
	st := m.acquire()
	if counts != nil && mapper >= 0 && mapper < maxMappers {
		for code := range counts {
			if c := counts[code]; c > 0 {
				st.methods[mapper][code].Add(uint64(c))
			}
		}
	}
	m.free.Put(st)
	m.lat.RecordN(perLookup, n)
	m.ringAdd(now, n)
}

// total folds the exact lookup count from the stripes.
func (m *metrics) total() uint64 {
	var n uint64
	for i := range m.stripes {
		n += m.stripes[i].singles.Load() + m.stripes[i].batched.Load()
	}
	return n
}

// methodKey is the name a method's count is reported under; misses are
// keyed "unmapped".
func methodKey(code method) string {
	if code == methodNone {
		return "unmapped"
	}
	return methodNames[code]
}

// addMethodCounts folds the non-zero mapper × method counters from the
// stripes into dst under the given mapper names.
func (m *metrics) addMethodCounts(dst MethodCounts, mappers []string) {
	for mi, name := range mappers[:min(len(mappers), maxMappers)] {
		for code := method(0); code < numMethods; code++ {
			var n uint64
			for i := range m.stripes {
				n += m.stripes[i].methods[mi][code].Load()
			}
			if n == 0 {
				continue
			}
			if dst[name] == nil {
				dst[name] = map[string]uint64{}
			}
			dst[name][methodKey(code)] += n
		}
	}
}

// ringAdd adds n lookups to now's second. A cell still holding another
// second is restarted in the same compare-and-swap that adds, so no
// concurrent add is wiped.
func (m *metrics) ringAdd(now time.Time, n uint64) {
	s := uint64(now.Unix())
	c := &m.ring[s%ringSeconds]
	for {
		old := c.Load()
		next := old + n
		if old>>32 != s {
			next = s<<32 | n
		}
		if c.CompareAndSwap(old, next) {
			return
		}
	}
}

// windowQPS sums the ring over the last complete `window` seconds
// (excluding the in-progress second) and averages.
func (m *metrics) windowQPS(now time.Time, window int) float64 {
	if window <= 0 || window > ringSeconds-2 {
		window = ringSeconds - 2
	}
	nowSec := now.Unix()
	var n uint64
	for i := range m.ring {
		c := m.ring[i].Load()
		if sec := int64(c >> 32); sec >= nowSec-int64(window) && sec < nowSec {
			n += c & (1<<32 - 1)
		}
	}
	return float64(n) / float64(window)
}

// MethodCounts reports per-mapper lookup counts keyed by method name;
// misses are keyed "unmapped".
type MethodCounts map[string]map[string]uint64

// SnapshotInfo summarises the currently published snapshot.
type SnapshotInfo struct {
	Digest     string    `json:"digest"`
	Build      BuildInfo `json:"build"`
	Mappers    []string  `json:"mappers"`
	Prefixes   int       `json:"prefixes"`
	ExactIPs   int       `json:"exact_ips"`
	Footprints int       `json:"footprints"`
	// Swaps counts hot-swaps since serving started (0 = the snapshot
	// the cluster was created with).
	Swaps uint64 `json:"swaps"`
}

// SnapshotInfo summarises the currently published snapshot.
func (c *Cluster) SnapshotInfo() SnapshotInfo { return c.snapshotInfo(c.Snapshot()) }

func (c *Cluster) snapshotInfo(snap *Snapshot) SnapshotInfo {
	return SnapshotInfo{
		Digest:     snap.Digest(),
		Build:      snap.Build(),
		Mappers:    snap.Mappers(),
		Prefixes:   snap.NumPrefixes(),
		ExactIPs:   snap.NumExactIPs(),
		Footprints: len(snap.asns),
		Swaps:      c.cm.swaps.Load(),
	}
}

// ShardStatus is one shard's /statusz section: the prefix range it
// owns, its share of the index, and its own serving counters.
type ShardStatus struct {
	ID         int    `json:"id"`
	RangeStart string `json:"range_start"`
	RangeEnd   string `json:"range_end"`
	Prefixes   int    `json:"prefixes"`
	ExactIPs   int    `json:"exact_ips"`
	Lookups    uint64 `json:"lookups"`
	// QPSWindow averages over the trailing ~14 complete seconds.
	QPSWindow    float64 `json:"qps_window"`
	LatencyP50Ns int64   `json:"latency_p50_ns"`
	LatencyP99Ns int64   `json:"latency_p99_ns"`
	// Latency is the copy of the range's histogram the quantiles above
	// were read from; /metrics exports it whole.
	Latency *obs.Histogram `json:"-"`
	// ShedBatches counts batches rejected because this shard's
	// in-flight queue was at budget.
	ShedBatches uint64 `json:"shed_batches"`
	Inflight    int64  `json:"inflight"`
}

// Status is one /statusz observation of a cluster: coordinator totals
// (latency quantiles merged across shards, method counts aggregated),
// batch counters, and a per-shard section.
type Status struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	QueueBudget   int     `json:"queue_budget"`
	Lookups       uint64  `json:"lookups"`
	// Batches counts batch requests; ShedBatches the ones rejected
	// whole under load (HTTP 429); Fanout the shard ranges served
	// batches touched, and AvgFanout its mean per served batch.
	Batches     uint64 `json:"batches"`
	ShedBatches uint64 `json:"shed_batches"`
	Fanout      uint64 `json:"fanout"`
	// DeltaSwaps counts epoch swaps published as incremental
	// delta-compiled snapshots; ResplitShards accumulates, across
	// those, the shards each delta actually moved.
	DeltaSwaps    uint64  `json:"delta_swaps,omitempty"`
	ResplitShards uint64  `json:"resplit_shards,omitempty"`
	AvgFanout     float64 `json:"avg_fanout"`
	// QPSWindow averages over the trailing ~14 complete seconds;
	// QPSLifetime over the whole uptime.
	QPSWindow   float64 `json:"qps_window"`
	QPSLifetime float64 `json:"qps_lifetime"`
	// Latency quantiles in nanoseconds (bucketed, ~25% resolution).
	LatencyP50Ns int64         `json:"latency_p50_ns"`
	LatencyP90Ns int64         `json:"latency_p90_ns"`
	LatencyP99Ns int64         `json:"latency_p99_ns"`
	Methods      MethodCounts  `json:"methods"`
	ShardStats   []ShardStatus `json:"shard_stats"`
	Wire         WireStatus    `json:"wire"`
	Snapshot     SnapshotInfo  `json:"snapshot"`
}

// WireStatus counts the binary endpoints' traffic (/v1/locate/bin and
// /v1/locate/stream): frames by kind, bytes each way, and epoch tag
// changes seen between two frames of one stream.
type WireStatus struct {
	BatchFrames  uint64 `json:"batch_frames"`
	StreamFrames uint64 `json:"stream_frames"`
	ErrorFrames  uint64 `json:"error_frames"`
	RxBytes      uint64 `json:"rx_bytes"`
	TxBytes      uint64 `json:"tx_bytes"`
	EpochChanges uint64 `json:"epoch_changes"`
}
