package geoserve

import (
	"sync/atomic"
	"time"

	"geonet/internal/obs"
)

// Engine publishes a Snapshot for lock-free concurrent reads and
// hot-swaps to new snapshots without pausing readers: the snapshot
// pointer is atomic, snapshots are immutable, and in-flight lookups
// finish against whichever snapshot they loaded. It also keeps the
// serving metrics /statusz reports.
type Engine struct {
	snap  atomic.Pointer[Snapshot]
	swaps atomic.Uint64
	start time.Time
	m     *metrics
}

// NewEngine starts serving the given snapshot.
func NewEngine(s *Snapshot) *Engine {
	e := &Engine{start: time.Now(), m: &metrics{}}
	e.snap.Store(s)
	return e
}

// NewEngineFrom starts serving snapshot s while carrying forward the
// serving metrics and uptime of prev — the epoch-swap constructor: a
// replica installing a new epoch gets a fresh engine whose counters,
// latency histogram and swap count continue the previous epoch's, so
// scrapes and /statusz never reset across syncs. A nil prev is
// equivalent to NewEngine.
func NewEngineFrom(s *Snapshot, prev *Engine) *Engine {
	if prev == nil {
		return NewEngine(s)
	}
	e := &Engine{start: prev.start, m: prev.m}
	e.swaps.Store(prev.swaps.Load() + 1)
	e.snap.Store(s)
	return e
}

// registerMetrics exposes the engine's serving families on reg.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	e.m.register(reg, e.snap.Load().Mappers())
	reg.CounterFunc("geoserve_snapshot_swaps_total",
		"Snapshot hot-swaps since the serving metrics were created.", nil,
		e.swaps.Load)
}

// Snapshot returns the currently published snapshot.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Swap publishes a new snapshot and returns the previous one. Readers
// racing with the swap serve consistently from one snapshot or the
// other; nothing blocks.
func (e *Engine) Swap(s *Snapshot) *Snapshot {
	old := e.snap.Swap(s)
	e.swaps.Add(1)
	return old
}

// Lookup answers one address under the mapper with the given index on
// the current snapshot, counting it exactly by mapper and method; one
// lookup in samplePeriod per stripe is also timed (see metrics). This
// is the in-process hot path: it allocates nothing and, unsampled,
// reads no clock and writes no cache line another core writes.
func (e *Engine) Lookup(mapper int, ip uint32) Answer {
	t := e.m.begin()
	a, code := e.snap.Load().lookup(mapper, ip)
	e.m.end(t, mapper, code)
	return a
}

// Locate resolves a mapper by name on the current snapshot and
// answers; ok=false for an unknown mapper (an empty name selects the
// first mapper). Name resolution and lookup use the same snapshot
// load, so a concurrent hot-swap cannot split them.
func (e *Engine) Locate(mapperName string, ip uint32) (Answer, bool) {
	snap := e.snap.Load()
	idx := 0
	if mapperName != "" {
		var ok bool
		if idx, ok = snap.MapperIndex(mapperName); !ok {
			return Answer{IP: ip}, false
		}
	}
	t := e.m.begin()
	a, code := snap.lookup(idx, ip)
	e.m.end(t, idx, code)
	return a, true
}

// serveWire answers ips as fixed-width wire answers written at their
// positions in out (WireAnswerSize bytes each), all from one snapshot
// load, resolving the wire mapper id on that same snapshot (ok=false
// when it doesn't). Each answer is one slab copy; the batch records
// into metrics as one fold, like the cluster's sub-batches.
func (e *Engine) serveWire(mapperID uint16, ips []uint32, out []byte, _ *obs.Trace) (*Snapshot, bool, error) {
	t0 := time.Now()
	snap := e.snap.Load()
	idx, ok := snap.wireMapperIndex(mapperID)
	if !ok {
		return snap, false, nil
	}
	w := snap.wire()
	var counts [numMethods]uint32
	for i, ip := range ips {
		code := snap.wireAnswer(w, idx, ip, out[i*WireAnswerSize:])
		counts[code]++
	}
	e.m.recordBatch(idx, &counts, uint64(len(ips)), time.Since(t0), t0)
	return snap, true, nil
}

// locateTail is the preserialized JSON single-lookup path: it resolves
// the mapper by name and returns the snapshot's cached response tail
// for ip's answer row, recording the lookup exactly like Locate.
func (e *Engine) locateTail(mapperName string, ip uint32) ([]byte, bool) {
	snap := e.snap.Load()
	idx := 0
	if mapperName != "" {
		var ok bool
		if idx, ok = snap.MapperIndex(mapperName); !ok {
			return nil, false
		}
	}
	t := e.m.begin()
	row := snap.lookupRow(ip)
	tail := snap.jsonTail(idx, row)
	e.m.end(t, idx, snap.rowMethod(idx, row))
	return tail, true
}

// Status reports the engine's serving metrics and the published
// snapshot's identity.
func (e *Engine) Status() Status {
	now := time.Now()
	snap := e.snap.Load()
	uptime := now.Sub(e.start).Seconds()
	st := Status{
		UptimeSeconds: uptime,
		Lookups:       e.m.total(),
		QPSWindow:     e.m.windowQPS(now, 0),
		LatencyP50Ns:  int64(e.m.lat.Quantile(0.50)),
		LatencyP90Ns:  int64(e.m.lat.Quantile(0.90)),
		LatencyP99Ns:  int64(e.m.lat.Quantile(0.99)),
		Methods:       MethodCounts{},
		Snapshot:      e.snapshotInfo(snap),
	}
	if uptime > 0 {
		st.QPSLifetime = float64(st.Lookups) / uptime
	}
	e.m.addMethodCounts(st.Methods, snap.mappers)
	return st
}

func (e *Engine) snapshotInfo(snap *Snapshot) SnapshotInfo {
	return makeSnapshotInfo(snap, e.swaps.Load())
}
