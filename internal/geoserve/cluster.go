package geoserve

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"geonet/internal/obs"
)

// ErrOverloaded is returned (wrapped) by batch lookups when a shard
// range the batch touches is at its in-flight budget; the HTTP layer
// maps it to 429.
var ErrOverloaded = errors.New("geoserve: cluster overloaded")

// DefaultQueueBudget is the per-shard in-flight batch budget when
// ClusterConfig leaves it zero.
const DefaultQueueBudget = 64

// ClusterConfig sizes a serving cluster.
type ClusterConfig struct {
	// Shards is the number of prefix-range shards (>= 1). The
	// ascending allocated /24s are cut into Shards contiguous runs
	// balanced by /24 count. A shard is an accounting range — its own counters
	// and admission budget — not a unit of parallelism.
	Shards int
	// QueueBudget caps the batches in flight on each shard range; a
	// batch touching a range already at budget is shed whole
	// (ErrOverloaded, HTTP 429) rather than queued without bound. <= 0
	// means DefaultQueueBudget.
	QueueBudget int
}

// clusterView is one epoch of the cluster: a snapshot and the cuts
// between its shard ranges, published together through one atomic
// pointer. That pointer is the whole epoch guard: every lookup, single
// or batch, loads it once and answers entirely from what it loaded.
type clusterView struct {
	snap   *Snapshot
	starts []uint32
}

// Cluster is the serving type: it publishes a Snapshot for lock-free
// concurrent reads and hot-swaps to new ones without pausing readers.
// Every lookup runs Snapshot.lookup on the goroutine that asked, so any
// shard count serves the same bytes as Snapshot.Lookup (the
// shard-count-invariance golden pins this). A shard is a contiguous
// address range with its own metrics and load-shedding budget: a
// lookup is counted on the range owning its address, and a batch is
// admitted against the ranges it touches. An unsharded server is the
// 1-shard Cluster.
type Cluster struct {
	shards []*Shard
	view   atomic.Pointer[clusterView]
	cm     *clusterMetrics
	budget int
}

// clusterMetrics is the carryable accounting of a serving cluster —
// everything that must survive the cluster being rebuilt for a new
// epoch (NewClusterFrom hands it to the replacement), separated from
// the per-epoch routing state that must not.
type clusterMetrics struct {
	swaps   atomic.Uint64
	batches atomic.Uint64
	// shedBatches counts whole batches rejected because some touched
	// shard was at budget; the shards' own counters attribute them.
	shedBatches atomic.Uint64
	// fanout accumulates the number of shard ranges served batches
	// touched, so Status can report the average.
	fanout atomic.Uint64
	// deltaSwaps counts epoch swaps that arrived as incremental
	// delta-compiled snapshots (SwapDelta); resplitShards accumulates,
	// across those swaps, the number of shards whose content the delta
	// actually moved.
	deltaSwaps    atomic.Uint64
	resplitShards atomic.Uint64
	// wire is added to by the HTTP handlers over the cluster; a replica
	// builds a handler per epoch and these must outlive it.
	wire   wireCounters
	start  time.Time
	shards []*Shard
}

// wireCounters counts the binary endpoints' traffic.
type wireCounters struct {
	batchFrames  obs.Counter // /v1/locate/bin responses
	streamFrames obs.Counter // stream answer frames
	errFrames    obs.Counter // in-band error frames
	rxBytes      obs.Counter // wire request bytes read
	txBytes      obs.Counter // wire response bytes written
	epochChanges obs.Counter // epoch tag changes mid-stream
}

func newClusterMetrics(shards int) *clusterMetrics {
	cm := &clusterMetrics{start: time.Now()}
	cm.shards = make([]*Shard, shards)
	for i := range cm.shards {
		cm.shards[i] = &Shard{}
	}
	return cm
}

// Engine and NewEngine are the names the frozen bench/ module calls
// the unsharded server by (bench/README.md § "The surface the harness
// calls"); they exist only for it. New code says Cluster.
type Engine = Cluster

// NewEngine starts serving the given snapshot from one shard.
func NewEngine(s *Snapshot) *Engine {
	c, err := NewCluster(s, ClusterConfig{Shards: 1})
	if err != nil {
		panic(err) // unreachable: a 1-shard split accepts any snapshot
	}
	return c
}

// NewCluster splits the snapshot into cfg.Shards prefix-range shards
// and starts serving. It fails if cfg.Shards > 1 and the snapshot has
// fewer /24 intervals than shards (a shard must own at least one
// interval for routing cuts to stay distinct).
func NewCluster(snap *Snapshot, cfg ClusterConfig) (*Cluster, error) {
	return NewClusterFrom(snap, cfg, nil)
}

// NewClusterFrom builds a cluster serving snap that carries prev's
// accounting forward: coordinator counters, uptime origin and every
// shard's metrics continue, and the swap count advances by one — so a
// replica installing each epoch as a fresh cluster still reports one
// continuous serving history (scrape continuity). If prev is nil, or
// its shard count differs from cfg's (the counters would no longer
// attribute to the same shard cuts), the accounting starts fresh.
func NewClusterFrom(snap *Snapshot, cfg ClusterConfig, prev *Cluster) (*Cluster, error) {
	starts, err := splitSnapshot(snap, cfg.Shards)
	if err != nil {
		return nil, err
	}
	budget := cfg.QueueBudget
	if budget <= 0 {
		budget = DefaultQueueBudget
	}
	c := &Cluster{budget: budget}
	if prev != nil && len(prev.shards) == len(starts) {
		c.cm = prev.cm
		c.cm.swaps.Add(1)
	} else {
		c.cm = newClusterMetrics(len(starts))
	}
	c.shards = c.cm.shards
	c.view.Store(&clusterView{snap: snap, starts: starts})
	return c, nil
}

// NumShards reports the cluster's shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// QueueBudget reports the effective per-shard in-flight batch budget.
func (c *Cluster) QueueBudget() int { return c.budget }

// Snapshot returns the snapshot of the currently published epoch.
func (c *Cluster) Snapshot() *Snapshot { return c.view.Load().snap }

// Swap publishes a new snapshot and its shard cuts in one pointer
// store. Readers never pause: a lookup or batch in flight finishes on
// the epoch it loaded, and everything after sees the new one. Returns
// the previously published snapshot.
func (c *Cluster) Swap(snap *Snapshot) (*Snapshot, error) {
	old, _, err := c.swap(snap)
	return old, err
}

func (c *Cluster) swap(snap *Snapshot) (old *Snapshot, starts []uint32, err error) {
	starts, err = splitSnapshot(snap, len(c.shards))
	if err != nil {
		return nil, nil, err
	}
	ov := c.view.Swap(&clusterView{snap: snap, starts: starts})
	c.cm.swaps.Add(1)
	return ov.snap, starts, nil
}

// SwapDelta publishes a delta-compiled snapshot exactly like Swap and
// reports how many shards the delta really moved: when the keys of
// every leaf group are unchanged (answers moved, geometry didn't) the
// cuts are the same, and resplit counts the shards owning a touched /24
// (CompileDelta's DeltaStats.Touched: the /24s whose answers it
// changed); when the keys changed (an interface or an allocation came
// or went, which a churn step of 20 events does nearly every time, and
// which may shift the cuts) every shard moved.
func (c *Cluster) SwapDelta(snap *Snapshot, touched []uint32) (old *Snapshot, resplit int, err error) {
	old, starts, err := c.swap(snap)
	if err != nil {
		return nil, 0, err
	}
	resplit = len(c.shards)
	if sameIndex(old, snap) {
		resplit = 0
		var seen [maxShards]bool
		for _, b := range touched {
			if i := shardIndexOf(starts, b); !seen[i] {
				seen[i] = true
				resplit++
			}
		}
	}
	c.cm.deltaSwaps.Add(1)
	c.cm.resplitShards.Add(uint64(resplit))
	return old, resplit, nil
}

// sameIndex reports whether two snapshots hold the same keys in every
// leaf group (answers may differ) — the condition under which a swap
// leaves the cluster's shard cuts where they were, and Derive shares
// its base's directory (after which the first comparison here decides).
func sameIndex(a, b *Snapshot) bool {
	return a.dir == b.dir || slices.EqualFunc(a.groups, b.groups, Group.sameKeys)
}

// Lookup answers one address under the mapper with the given index
// and counts it, exactly by mapper and method, on the shard range
// owning the address; one lookup in samplePeriod per stripe is also
// timed (see metrics). This is the in-process hot path: it allocates
// nothing and, unsampled, reads no clock and writes no cache line
// another core writes.
func (c *Cluster) Lookup(mapper int, ip uint32) Answer {
	v := c.view.Load()
	m := &c.shards[shardIndexOf(v.starts, ip)].m
	t := m.begin()
	a, code := v.snap.lookup(mapper, ip)
	m.end(t, mapper, code)
	return a
}

// locate is the JSON single-lookup path: Lookup with the mapper
// resolved by name (empty selects the first), counted exactly like
// Lookup. It returns the snapshot that resolved and answered and the
// mapper index on it; ok=false means the name is unknown there.
func (c *Cluster) locate(mapperName string, ip uint32) (snap *Snapshot, mapper int, a Answer, ok bool) {
	v := c.view.Load()
	if mapper, ok = v.snap.mapperByName(mapperName); !ok {
		return v.snap, 0, Answer{}, false
	}
	m := &c.shards[shardIndexOf(v.starts, ip)].m
	t := m.begin()
	a, code := v.snap.lookup(mapper, ip)
	m.end(t, mapper, code)
	return v.snap, mapper, a, true
}

// LookupBatch answers ips[i] into out[i] under the mapper with the
// given index, on the calling goroutine and from one view. The batch is
// admitted against the in-flight budget of every shard range it
// touches, and each range is charged the lookups that fell in it. The
// returned digest identifies the single snapshot epoch that served the
// whole batch. A wrapped ErrOverloaded means no lookup ran and the
// batch was shed.
func (c *Cluster) LookupBatch(mapper int, ips []uint32, out []Answer) (string, error) {
	if len(out) < len(ips) {
		return "", fmt.Errorf("geoserve: out buffer %d < batch %d", len(out), len(ips))
	}
	v := c.view.Load()
	if err := c.serveBatch(v, mapper, ips, out, nil); err != nil {
		return "", err
	}
	return v.snap.Digest(), nil
}

// locateBatch is LookupBatch with mapper resolution by name (empty
// selects the first mapper) on the same view that serves. It returns
// the snapshot of that view and the mapper index resolved on it, so
// the caller names the mapper from the epoch that answered; ok=false
// means the name is unknown there and nothing ran. tr is the request's
// trace handle (nil when untraced).
func (c *Cluster) locateBatch(mapperName string, ips []uint32, out []Answer, tr *obs.Trace) (snap *Snapshot, mapper int, ok bool, err error) {
	v := c.view.Load()
	if mapper, ok = v.snap.mapperByName(mapperName); !ok {
		return v.snap, 0, false, nil
	}
	return v.snap, mapper, true, c.serveBatch(v, mapper, ips, out, tr)
}

func (c *Cluster) serveBatch(v *clusterView, mapper int, ips []uint32, out []Answer, tr *obs.Trace) error {
	var b batchTally
	if err := c.admit(v, ips, &b); err != nil {
		return err
	}
	for j, ip := range ips {
		a, code := v.snap.lookup(mapper, ip)
		out[j] = a
		b.methods[code]++
	}
	c.settle(&b, mapper, len(ips), tr)
	return nil
}

// serveWire answers ips as fixed-width wire answers written at their
// positions in out (WireAnswerSize bytes each), resolving the wire
// mapper id and serving the whole batch from one view. It returns that
// view's snapshot and the mapper index resolved on it; ok=false means
// the id doesn't resolve on that epoch, a wrapped ErrOverloaded that
// the batch was shed whole.
func (c *Cluster) serveWire(mapperID uint16, ips []uint32, out []byte, tr *obs.Trace) (snap *Snapshot, mapper int, ok bool, err error) {
	v := c.view.Load()
	if mapper, ok = v.snap.wireMapperIndex(mapperID); !ok {
		return v.snap, 0, false, nil
	}
	var b batchTally
	if err := c.admit(v, ips, &b); err != nil {
		return v.snap, mapper, true, err
	}
	for j, ip := range ips {
		b.methods[v.snap.wireAnswer(mapper, ip, out[j*WireAnswerSize:])]++
	}
	c.settle(&b, mapper, len(ips), tr)
	return v.snap, mapper, true, nil
}

// batchTally is one batch's accounting, held on the stack of the
// goroutine serving it: when serving began, how many of the batch's
// addresses fall in each shard range, and the answers' method counts.
type batchTally struct {
	start    time.Time
	touched  int
	perShard [maxShards]uint32
	methods  [numMethods]uint32
}

// admit counts the batch's addresses per shard range on the view and
// reserves an in-flight slot on every range touched, all or nothing: a
// shed batch runs no lookup, and a range holding none of the batch's
// addresses is neither charged nor admitted against.
func (c *Cluster) admit(v *clusterView, ips []uint32, b *batchTally) error {
	c.cm.batches.Add(1)
	for _, ip := range ips {
		b.perShard[shardIndexOf(v.starts, ip)]++
	}
	for i, sh := range c.shards {
		if b.perShard[i] == 0 {
			continue
		}
		if !sh.tryAcquire(c.budget) {
			for j, held := range c.shards[:i] {
				if b.perShard[j] != 0 {
					held.release()
				}
			}
			c.cm.shedBatches.Add(1)
			return fmt.Errorf("%w: shard %d at in-flight budget %d", ErrOverloaded, i, c.budget)
		}
		b.touched++
	}
	c.cm.fanout.Add(uint64(b.touched))
	b.start = time.Now()
	return nil
}

// settle closes a served batch of n lookups: every touched range is
// charged the lookups that fell in it, at the batch's per-lookup
// average latency (so batch serving never pays a clock read per
// address), and its slot released. Method counts are only ever reported
// summed over ranges, so the lowest touched range takes the batch's,
// once every touched range has counted its lookups: Status reads range
// after range, so a scrape between two ranges never finds more lookups
// attributed to methods than counted.
func (c *Cluster) settle(b *batchTally, mapper, n int, tr *obs.Trace) {
	if n == 0 {
		return
	}
	perLookup := time.Since(b.start) / time.Duration(n)
	for i, sh := range c.shards {
		if k := b.perShard[i]; k != 0 {
			sh.m.countBatch(uint64(k))
		}
	}
	methods := &b.methods
	for i, sh := range c.shards {
		if k := b.perShard[i]; k != 0 {
			sh.m.recordBatch(mapper, methods, uint64(k), perLookup, b.start)
			methods = nil
			sh.release()
		}
	}
	if tr != nil {
		tr.Span("cluster.serve", b.start, obs.AInt("batch", n), obs.AInt("shards", b.touched))
	}
}

// Status reports the coordinator's serving metrics, a per-shard
// section for each shard, and the published epoch's identity. It is the
// one computation behind both /statusz (its JSON) and /metrics (Emit).
// A lookup counts itself, then its method, then its latency; each
// range is read in the reverse order, so under traffic the latency
// counts and the method counts never exceed the lookup totals reported
// beside them.
func (c *Cluster) Status() Status {
	now := time.Now()
	v := c.view.Load()
	uptime := now.Sub(c.cm.start).Seconds()
	merged := &obs.Histogram{}
	var (
		lookups uint64
		window  float64
	)
	methods := MethodCounts{}
	stats := make([]ShardStatus, len(c.shards))
	for i, sh := range c.shards {
		lo, hi, prefixes, exactIPs := shardRange(v.snap, v.starts, i)
		lat := &obs.Histogram{}
		lat.Merge(&sh.m.lat)
		merged.Merge(lat)
		sh.m.addMethodCounts(methods, v.snap.mappers)
		n := sh.m.total()
		lookups += n
		w := sh.m.windowQPS(now, 0)
		window += w
		stats[i] = ShardStatus{
			ID:           i,
			RangeStart:   FormatIPv4(lo),
			RangeEnd:     FormatIPv4(hi),
			Prefixes:     prefixes,
			ExactIPs:     exactIPs,
			Lookups:      n,
			QPSWindow:    w,
			LatencyP50Ns: int64(lat.Quantile(0.50)),
			LatencyP99Ns: int64(lat.Quantile(0.99)),
			Latency:      lat,
			ShedBatches:  sh.shed.Load(),
			Inflight:     sh.inflight.Load(),
		}
	}
	// Shed is loaded before the batch total so a concurrent shed can
	// never make shed > batches and underflow the served count below.
	shed := c.cm.shedBatches.Load()
	batches := c.cm.batches.Load()
	wire := &c.cm.wire
	st := Status{
		UptimeSeconds: uptime,
		Shards:        len(c.shards),
		QueueBudget:   c.budget,
		Lookups:       lookups,
		Batches:       batches,
		ShedBatches:   shed,
		Fanout:        c.cm.fanout.Load(),
		DeltaSwaps:    c.cm.deltaSwaps.Load(),
		ResplitShards: c.cm.resplitShards.Load(),
		QPSWindow:     window,
		LatencyP50Ns:  int64(merged.Quantile(0.50)),
		LatencyP90Ns:  int64(merged.Quantile(0.90)),
		LatencyP99Ns:  int64(merged.Quantile(0.99)),
		Methods:       methods,
		ShardStats:    stats,
		Wire: WireStatus{
			BatchFrames:  wire.batchFrames.Value(),
			StreamFrames: wire.streamFrames.Value(),
			ErrorFrames:  wire.errFrames.Value(),
			RxBytes:      wire.rxBytes.Value(),
			TxBytes:      wire.txBytes.Value(),
			EpochChanges: wire.epochChanges.Value(),
		},
		Snapshot: c.snapshotInfo(v.snap),
	}
	if batches > shed {
		st.AvgFanout = float64(st.Fanout) / float64(batches-shed)
	}
	if uptime > 0 {
		st.QPSLifetime = float64(lookups) / uptime
	}
	return st
}

// Collect is the cluster's collector: one Status, emitted.
func (c *Cluster) Collect(e *obs.Emitter) { c.Status().Emit(e) }

// Emit renders the status as the cluster's /metrics families:
// coordinator totals, batch and wire counters, and a per-shard section
// (latency histogram, lookups, sheds, in-flight) labeled by shard
// index. Series order is fixed (mapper-major, method-minor, zeros
// included) so the exposition — and the golden pinning it — is
// deterministic.
func (st Status) Emit(e *obs.Emitter) {
	e.Counter("geoserve_requests_total", "Lookups served across all mappers.", nil, st.Lookups)
	for _, mapper := range st.Snapshot.Mappers[:min(len(st.Snapshot.Mappers), maxMappers)] {
		for code := method(0); code < numMethods; code++ {
			labels := obs.Labels{{Key: "mapper", Value: mapper}, {Key: "method", Value: methodKey(code)}}
			e.Counter("geoserve_lookups_total", "Lookups by mapper and resolution method.", labels, st.Methods[mapper][methodKey(code)])
		}
	}
	e.Gauge("geoserve_window_qps", "Lookups per second over the trailing complete-seconds window.", nil, st.QPSWindow)
	e.Counter("geoserve_snapshot_swaps_total", "Snapshot hot-swaps since the serving metrics were created.", nil, st.Snapshot.Swaps)
	e.Counter("geoserve_cluster_batches_total", "Batch requests.", nil, st.Batches)
	e.Counter("geoserve_cluster_shed_batches_total", "Batches rejected whole because an owning shard was at budget.", nil, st.ShedBatches)
	e.Counter("geoserve_cluster_fanout_total", "Shard ranges touched by served batches.", nil, st.Fanout)
	e.Counter("geoserve_cluster_delta_swaps_total", "Epoch swaps published as incremental delta-compiled snapshots.", nil, st.DeltaSwaps)
	e.Counter("geoserve_cluster_resplit_shards_total", "Shards whose content a delta swap actually moved.", nil, st.ResplitShards)
	for _, sh := range st.ShardStats {
		labels := obs.Labels{{Key: "shard", Value: strconv.Itoa(sh.ID)}}
		e.Histogram("geoserve_lookup_latency_seconds", "Per-lookup serving latency.", labels, sh.Latency)
		e.Counter("geoserve_shard_lookups_total", "Lookups served by shard.", labels, sh.Lookups)
		e.Counter("geoserve_shard_shed_total", "Batches this shard's budget shed.", labels, sh.ShedBatches)
		e.Gauge("geoserve_shard_inflight", "In-flight batch tasks on this shard.", labels, float64(sh.Inflight))
	}
	e.Counter("geoserve_wire_batch_frames_total", "Binary batch responses served.", nil, st.Wire.BatchFrames)
	e.Counter("geoserve_wire_stream_frames_total", "Streaming answer frames served.", nil, st.Wire.StreamFrames)
	e.Counter("geoserve_wire_error_frames_total", "In-band wire error frames written.", nil, st.Wire.ErrorFrames)
	e.Counter("geoserve_wire_rx_bytes_total", "Wire-protocol request bytes read.", nil, st.Wire.RxBytes)
	e.Counter("geoserve_wire_tx_bytes_total", "Wire-protocol response bytes written.", nil, st.Wire.TxBytes)
	e.Counter("geoserve_wire_epoch_changes_total", "Epoch tag changes observed between frames of one stream.", nil, st.Wire.EpochChanges)
}
