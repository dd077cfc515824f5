package geoserve

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/obs"
)

// ErrOverloaded is returned (wrapped) by batch lookups when an owning
// shard's in-flight queue is at budget; the HTTP layer maps it to 429.
var ErrOverloaded = errors.New("geoserve: cluster overloaded")

// DefaultQueueBudget is the per-shard in-flight batch budget when
// ClusterConfig leaves it zero.
const DefaultQueueBudget = 64

// ClusterConfig sizes a serving cluster.
type ClusterConfig struct {
	// Shards is the number of prefix-range shards (>= 1). The sorted
	// /24 interval index is cut into Shards contiguous runs balanced by
	// interval count.
	Shards int
	// QueueBudget caps each shard's in-flight batch tasks; a batch
	// touching a shard already at budget is shed whole (ErrOverloaded,
	// HTTP 429) rather than queued without bound. <= 0 means
	// DefaultQueueBudget.
	QueueBudget int
}

// clusterView is one epoch of the cluster: a snapshot and its routing
// table, published together through one atomic pointer. A batch serves
// entirely from one view, so scatter-gathered answer sets can never
// blend two epochs even while a shard-by-shard swap is in progress.
type clusterView struct {
	snap   *Snapshot
	starts []uint32
}

// Cluster is the serving type: it publishes a Snapshot for lock-free
// concurrent reads and hot-swaps to new ones without pausing readers.
// A coordinator routes single lookups to the owning prefix-range shard
// and scatter-gathers batches across shards; each shard is a window on
// the one snapshot with its own metrics and load-shedding budget, so
// every shard count runs the same Snapshot lookup code and serves the
// same bytes as Snapshot.Lookup (the shard-count-invariance golden
// pins this). An unsharded server is the 1-shard Cluster.
type Cluster struct {
	shards  []*Shard
	view    atomic.Pointer[clusterView]
	cm      *clusterMetrics
	budget  int
	scratch sync.Pool // *batchScratch
}

// clusterMetrics is the carryable accounting of a serving cluster —
// everything that must survive the cluster being rebuilt for a new
// epoch (NewClusterFrom hands it to the replacement), separated from
// the per-epoch routing state that must not.
type clusterMetrics struct {
	swaps   atomic.Uint64
	batches atomic.Uint64
	// shedBatches counts whole batches rejected because some owning
	// shard was at budget; the shards' own counters attribute them.
	shedBatches atomic.Uint64
	// fanout accumulates the number of shard sub-batches scattered, so
	// Status can report the average scatter width.
	fanout atomic.Uint64
	// deltaSwaps counts epoch swaps that arrived as incremental
	// delta-compiled snapshots (SwapDelta); resplitShards accumulates,
	// across those swaps, the number of shards whose content the delta
	// actually moved.
	deltaSwaps    atomic.Uint64
	resplitShards atomic.Uint64
	start         time.Time
	shardStates   []*shardState
}

func newClusterMetrics(shards int) *clusterMetrics {
	cm := &clusterMetrics{start: time.Now()}
	cm.shardStates = make([]*shardState, shards)
	for i := range cm.shardStates {
		cm.shardStates[i] = &shardState{}
	}
	return cm
}

// batchScratch is pooled per-request scatter state: the owning shard
// of every address in the batch plus the distinct shards involved.
type batchScratch struct {
	shardOf  []uint8
	involved []int
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
	datas, starts, err := splitSnapshot(snap, cfg.Shards)
	if err != nil {
		return nil, err
	}
	budget := cfg.QueueBudget
	if budget <= 0 {
		budget = DefaultQueueBudget
	}
	c := &Cluster{budget: budget}
	if prev != nil && len(prev.shards) == len(datas) {
		c.cm = prev.cm
		c.cm.swaps.Add(1)
	} else {
		c.cm = newClusterMetrics(len(datas))
	}
	c.shards = make([]*Shard, len(datas))
	for i, d := range datas {
		sh := &Shard{budget: int64(budget), st: c.cm.shardStates[i]}
		sh.data.Store(d)
		c.shards[i] = sh
	}
	c.view.Store(&clusterView{snap: snap, starts: starts})
	return c, nil
}

// NumShards reports the cluster's shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// QueueBudget reports the effective per-shard in-flight batch budget.
func (c *Cluster) QueueBudget() int { return c.budget }

// Snapshot returns the snapshot of the currently published epoch.
func (c *Cluster) Snapshot() *Snapshot { return c.view.Load().snap }

// Swap rebuilds the cluster onto a new snapshot: the new per-shard
// windows are stored shard by shard (single lookups migrate
// incrementally, each shard atomically), then the complete new epoch
// is published for the batch path. Readers never pause, and a batch in
// flight keeps serving its whole answer set from the epoch it loaded.
// Returns the previously published snapshot.
func (c *Cluster) Swap(snap *Snapshot) (*Snapshot, error) {
	old, _, err := c.swap(snap)
	return old, err
}

func (c *Cluster) swap(snap *Snapshot) (old *Snapshot, starts []uint32, err error) {
	datas, starts, err := splitSnapshot(snap, len(c.shards))
	if err != nil {
		return nil, nil, err
	}
	for i, sh := range c.shards {
		sh.data.Store(datas[i])
	}
	ov := c.view.Swap(&clusterView{snap: snap, starts: starts})
	c.cm.swaps.Add(1)
	return ov.snap, starts, nil
}

// SwapDelta publishes a delta-compiled snapshot exactly like Swap and
// reports how many shards the delta really moved: when the interval
// index is unchanged (the common churn step: answers moved, geometry
// didn't) the cuts are the same, and resplit counts the shards owning
// a touched /24 (CompileDelta's DeltaStats.Touched); when the index
// itself changed (allocation growth or reclaim shifted the cuts) every
// shard moved.
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

// sameIndex reports whether two snapshots share an identical interval
// and exact-address index (answers may differ) — the condition under
// which a swap leaves the cluster's shard cuts where they were, and a
// delta compile shares its predecessor's directory (after which the
// first comparison here decides).
func sameIndex(a, b *Snapshot) bool {
	return a.dir == b.dir ||
		slices.Equal(a.prefixes, b.prefixes) && slices.Equal(a.ips, b.ips)
}

// Lookup answers one address under the mapper with the given index,
// routed to the owning shard, which counts it exactly by mapper and
// method; one lookup in samplePeriod per stripe is also timed (see
// metrics). This is the in-process hot path: it allocates nothing and,
// unsampled, reads no clock and writes no cache line another core
// writes.
func (c *Cluster) Lookup(mapper int, ip uint32) Answer {
	sh, snap := c.route(c.view.Load(), ip)
	t := sh.st.m.begin()
	a, code := snap.lookup(mapper, ip)
	sh.st.m.end(t, mapper, code)
	return a
}

// Locate resolves a mapper by name and answers (empty name selects the
// first mapper); ok=false for an unknown mapper. Resolution, routing
// and lookup all use one view load, so a concurrent swap cannot split
// them.
func (c *Cluster) Locate(mapperName string, ip uint32) (Answer, bool) {
	v := c.view.Load()
	idx, ok := v.snap.mapperByName(mapperName)
	if !ok {
		return Answer{IP: ip}, false
	}
	sh, snap := c.route(v, ip)
	t := sh.st.m.begin()
	a, code := snap.lookup(idx, ip)
	sh.st.m.end(t, idx, code)
	return a, true
}

// route finds ip's owning shard on the given view and the snapshot
// that answers it: the one the shard's window is on. While a swap to a
// different prefix topology is mid-flight a shard's own window may not
// cover the routed range yet; the view's snapshot then serves instead,
// so every single answer is wholly from one of the two live epochs.
func (c *Cluster) route(v *clusterView, ip uint32) (*Shard, *Snapshot) {
	sh := c.shards[shardIndexOf(v.starts, ip)]
	if d := sh.data.Load(); d.owns(ip) {
		return sh, d.snap
	}
	return sh, v.snap
}

// LookupBatch answers ips[i] into out[i] under the mapper with the
// given index, scatter-gathering per-shard sub-batches: addresses are
// grouped by owning shard, each involved shard serves its group
// concurrently (bounded by its in-flight budget) against one
// epoch-consistent view, and results land at their input positions.
// The returned digest identifies the single snapshot epoch that served
// the whole batch. A wrapped ErrOverloaded means no lookup ran and the
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
	return c.scatter(v, ips, tr, func(i int, shardOf []uint8) {
		c.shards[i].serveGroup(v.snap, uint8(i), mapper, ips, shardOf, out)
	})
}

// serveWire answers ips as fixed-width wire answers written at their
// positions in out (WireAnswerSize bytes each), resolving the wire
// mapper id and serving the whole batch from one epoch-consistent
// view. ok=false means the id doesn't resolve on that epoch; a wrapped
// ErrOverloaded means the batch was shed whole.
func (c *Cluster) serveWire(mapperID uint16, ips []uint32, out []byte, tr *obs.Trace) (*Snapshot, bool, error) {
	v := c.view.Load()
	idx, ok := v.snap.wireMapperIndex(mapperID)
	if !ok {
		return v.snap, false, nil
	}
	err := c.scatter(v, ips, tr, func(i int, shardOf []uint8) {
		c.shards[i].serveGroupWire(v.snap, uint8(i), idx, ips, shardOf, out)
	})
	return v.snap, true, err
}

// scatter groups ips by owning shard on the view, admits the batch
// all-or-nothing against every involved shard's in-flight budget, and
// runs serve(i, shardOf) for each involved shard — concurrently when
// more than one — releasing slots as groups finish. serve implementors
// write only positions j with shardOf[j] == i, so concurrent groups
// stay disjoint.
func (c *Cluster) scatter(v *clusterView, ips []uint32, tr *obs.Trace, serve func(shard int, shardOf []uint8)) error {
	c.cm.batches.Add(1)
	sc, _ := c.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	if cap(sc.shardOf) < len(ips) {
		sc.shardOf = make([]uint8, len(ips))
	}
	shardOf := sc.shardOf[:len(ips)]
	involved := sc.involved[:0]
	var seen [maxShards]bool
	for j, ip := range ips {
		i := shardIndexOf(v.starts, ip)
		shardOf[j] = uint8(i)
		if !seen[i] {
			seen[i] = true
			involved = append(involved, i)
		}
	}
	sc.involved = involved
	if len(involved) == 0 { // empty batch: nothing to scatter
		c.scratch.Put(sc)
		return nil
	}

	// All-or-nothing admission: reserve a slot on every involved shard
	// before any lookup runs, so a shed batch does no partial work.
	for k, i := range involved {
		if !c.shards[i].tryAcquire() {
			for _, j := range involved[:k] {
				c.shards[j].release()
			}
			c.cm.shedBatches.Add(1)
			c.scratch.Put(sc)
			return fmt.Errorf("%w: shard %d at in-flight budget %d", ErrOverloaded, i, c.budget)
		}
	}
	c.cm.fanout.Add(uint64(len(involved)))

	if len(involved) == 1 {
		i := involved[0]
		scatterServe(tr, serve, i, shardOf)
		c.shards[i].release()
	} else {
		var wg sync.WaitGroup
		for _, i := range involved[1:] {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				scatterServe(tr, serve, i, shardOf)
				c.shards[i].release()
			}(i)
		}
		i0 := involved[0]
		scatterServe(tr, serve, i0, shardOf)
		c.shards[i0].release()
		wg.Wait()
	}
	c.scratch.Put(sc)
	return nil
}

// scatterServe runs one shard's sub-batch, recording a shard.serve
// span for traced requests. A top-level function rather than a wrap of
// serve inside scatter so the untraced hot path never mutates (and so
// never heap-boxes) the serve callback.
func scatterServe(tr *obs.Trace, serve func(shard int, shardOf []uint8), i int, shardOf []uint8) {
	if tr == nil {
		serve(i, shardOf)
		return
	}
	t0 := time.Now()
	serve(i, shardOf)
	tr.Span("shard.serve", t0, obs.AInt("shard", i), obs.AInt("batch", len(shardOf)))
}

// locateTail is the preserialized JSON single-lookup path: it
// resolves the mapper by name, routes to the owning shard (recording
// the lookup in that shard's metrics, exactly like Locate) and returns
// the snapshot's cached response tail for ip's answer row; ok=false
// means the mapper is unknown.
func (c *Cluster) locateTail(mapperName string, ip uint32) ([]byte, bool) {
	v := c.view.Load()
	idx, ok := v.snap.mapperByName(mapperName)
	if !ok {
		return nil, false
	}
	sh, snap := c.route(v, ip)
	t := sh.st.m.begin()
	row := snap.lookupRow(ip)
	tail := snap.jsonTail(idx, row)
	sh.st.m.end(t, idx, snap.rowMethod(idx, row))
	return tail, true
}

// registerMetrics exposes the cluster's serving families on reg:
// coordinator totals summed across shards, scatter-gather counters,
// and a per-shard section (latency histogram, lookups, sheds,
// in-flight) labeled by shard index. Registration order is fixed
// (mapper-major, method-minor) so the exposition — and the golden test
// pinning it — is deterministic. Safe to call again for a replacement
// cluster: the registry replaces series in place, keeping the scrape's
// family shape stable across epochs. Scrape-time readers only load
// atomics; nothing here touches the serving hot path.
func (c *Cluster) registerMetrics(reg *obs.Registry) {
	mappers := c.view.Load().snap.Mappers()
	reg.CounterFunc("geoserve_requests_total",
		"Lookups served across all mappers.", nil, func() uint64 {
			var n uint64
			for _, sh := range c.shards {
				n += sh.st.m.total()
			}
			return n
		})
	for mi, mapper := range mappers {
		if mi >= maxMappers {
			break
		}
		for code := method(0); code < numMethods; code++ {
			name := methodNames[code]
			if name == "" {
				name = "unmapped"
			}
			reg.CounterFunc("geoserve_lookups_total",
				"Lookups by mapper and resolution method.",
				obs.Labels{{Key: "mapper", Value: mapper}, {Key: "method", Value: name}},
				func() uint64 {
					var n uint64
					for _, sh := range c.shards {
						n += sh.st.m.methodCount(mi, code)
					}
					return n
				})
		}
	}
	reg.GaugeFunc("geoserve_window_qps",
		"Lookups per second over the trailing complete-seconds window.", nil,
		func() float64 {
			now := time.Now()
			var qps float64
			for _, sh := range c.shards {
				qps += sh.st.m.windowQPS(now, 0)
			}
			return qps
		})
	reg.CounterFunc("geoserve_snapshot_swaps_total",
		"Snapshot hot-swaps since the serving metrics were created.", nil,
		c.cm.swaps.Load)
	reg.CounterFunc("geoserve_cluster_batches_total",
		"Scatter-gather batch requests.", nil, c.cm.batches.Load)
	reg.CounterFunc("geoserve_cluster_shed_batches_total",
		"Batches rejected whole because an owning shard was at budget.", nil,
		c.cm.shedBatches.Load)
	reg.CounterFunc("geoserve_cluster_fanout_total",
		"Shard sub-batches scattered across served batches.", nil,
		c.cm.fanout.Load)
	reg.CounterFunc("geoserve_cluster_delta_swaps_total",
		"Epoch swaps published as incremental delta-compiled snapshots.", nil,
		c.cm.deltaSwaps.Load)
	reg.CounterFunc("geoserve_cluster_resplit_shards_total",
		"Shards whose content a delta swap actually moved.", nil,
		c.cm.resplitShards.Load)
	for i, sh := range c.shards {
		labels := obs.Labels{{Key: "shard", Value: strconv.Itoa(i)}}
		reg.RegisterHistogram("geoserve_lookup_latency_seconds",
			"Per-lookup serving latency.", labels, &sh.st.m.lat)
		reg.CounterFunc("geoserve_shard_lookups_total",
			"Lookups served by shard.", labels, sh.st.m.total)
		reg.CounterFunc("geoserve_shard_shed_total",
			"Batches this shard's budget shed.", labels, sh.st.shed.Load)
		reg.GaugeFunc("geoserve_shard_inflight",
			"In-flight batch tasks on this shard.", labels,
			func() float64 { return float64(sh.inflight.Load()) })
	}
}

// Status reports the coordinator's serving metrics, a per-shard
// section for each shard, and the published epoch's identity.
func (c *Cluster) Status() Status {
	now := time.Now()
	v := c.view.Load()
	uptime := now.Sub(c.cm.start).Seconds()
	merged := &Histogram{}
	var (
		lookups uint64
		window  float64
	)
	methods := MethodCounts{}
	stats := make([]ShardStatus, len(c.shards))
	for i, sh := range c.shards {
		d := sh.data.Load()
		merged.Merge(&sh.st.m.lat)
		n := sh.st.m.total()
		lookups += n
		w := sh.st.m.windowQPS(now, 0)
		window += w
		stats[i] = ShardStatus{
			ID:           i,
			RangeStart:   FormatIPv4(d.lo),
			RangeEnd:     FormatIPv4(d.hi),
			Prefixes:     d.prefixes,
			ExactIPs:     d.exactIPs,
			Lookups:      n,
			QPSWindow:    w,
			LatencyP50Ns: int64(sh.st.m.lat.Quantile(0.50)),
			LatencyP99Ns: int64(sh.st.m.lat.Quantile(0.99)),
			ShedBatches:  sh.st.shed.Load(),
			Inflight:     sh.inflight.Load(),
		}
		sh.st.m.addMethodCounts(methods, v.snap.mappers)
	}
	// Shed is loaded before the batch total so a concurrent shed can
	// never make shed > batches and underflow the served count below.
	shed := c.cm.shedBatches.Load()
	batches := c.cm.batches.Load()
	st := Status{
		UptimeSeconds: uptime,
		Shards:        len(c.shards),
		QueueBudget:   c.budget,
		Lookups:       lookups,
		Batches:       batches,
		ShedBatches:   shed,
		DeltaSwaps:    c.cm.deltaSwaps.Load(),
		ResplitShards: c.cm.resplitShards.Load(),
		QPSWindow:     window,
		LatencyP50Ns:  int64(merged.Quantile(0.50)),
		LatencyP90Ns:  int64(merged.Quantile(0.90)),
		LatencyP99Ns:  int64(merged.Quantile(0.99)),
		Methods:       methods,
		ShardStats:    stats,
		Snapshot:      c.snapshotInfo(v.snap),
	}
	if batches > shed {
		st.AvgFanout = float64(c.cm.fanout.Load()) / float64(batches-shed)
	}
	if uptime > 0 {
		st.QPSLifetime = float64(lookups) / uptime
	}
	return st
}

func (c *Cluster) snapshotInfo(snap *Snapshot) SnapshotInfo {
	return makeSnapshotInfo(snap, c.cm.swaps.Load())
}
