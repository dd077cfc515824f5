package geoserve

import (
	"fmt"
	"sync/atomic"
	"time"
)

// maxShards bounds a cluster's shard count so batch scatter scratch can
// store shard ids in one byte.
const maxShards = 256

// shardData is one shard's window on a parent snapshot: the address
// range it owns and how much of the index falls inside it. It holds no
// index of its own — a shard lookup is the parent's Snapshot.lookup,
// so it is byte-equivalent to the unsharded lookup by construction —
// and splitting a snapshot is O(shards·log n).
type shardData struct {
	snap *Snapshot
	// The shard owns addresses in [lo, hi] (inclusive); the ranges of a
	// split partition the whole 32-bit space, so every address has
	// exactly one owner.
	lo, hi uint32
	// prefixes and exactIPs count the /24 intervals and exact addresses
	// inside the range (/statusz reports them).
	prefixes, exactIPs int
}

// owns reports whether ip falls in the shard's address range.
func (d *shardData) owns(ip uint32) bool { return ip >= d.lo && ip <= d.hi }

// splitSnapshot cuts the snapshot's sorted /24 interval index into n
// contiguous runs balanced by interval count (runs differ by at most
// one prefix), and counts the exact addresses between the same address
// boundaries. starts[i] is the lower bound of shard i's address range;
// starts[0] is 0 and the last shard extends to 0xFFFFFFFF, so the
// ranges partition the address space and routing is one binary search.
// One shard takes any snapshot, an empty one included.
func splitSnapshot(snap *Snapshot, n int) (datas []*shardData, starts []uint32, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("geoserve: shard count %d < 1", n)
	}
	if n > maxShards {
		return nil, nil, fmt.Errorf("geoserve: shard count %d exceeds max %d", n, maxShards)
	}
	if n > 1 && n > len(snap.prefixes) {
		return nil, nil, fmt.Errorf("geoserve: %d shards over %d /24 intervals", n, len(snap.prefixes))
	}
	starts = make([]uint32, n)
	for i := 1; i < n; i++ {
		starts[i] = snap.prefixes[i*len(snap.prefixes)/n]
	}
	datas = make([]*shardData, n)
	for i := 0; i < n; i++ {
		pLo, pHi := i*len(snap.prefixes)/n, (i+1)*len(snap.prefixes)/n
		// Exact addresses in [starts[i], hi] — lower bounds in the
		// sorted ips array.
		ipLo, _ := search32(snap.ips, starts[i])
		hi, ipHi := uint32(0xFFFFFFFF), len(snap.ips)
		if i+1 < n {
			hi = starts[i+1] - 1
			ipHi, _ = search32(snap.ips, starts[i+1])
		}
		datas[i] = &shardData{snap: snap, lo: starts[i], hi: hi, prefixes: pHi - pLo, exactIPs: ipHi - ipLo}
	}
	return datas, starts, nil
}

// shardIndexOf routes an address to its owning shard: the greatest i
// with starts[i] <= ip (starts[0] is always 0).
func shardIndexOf(starts []uint32, ip uint32) int {
	lo, hi := 0, len(starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= ip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// shardState is the carryable part of a shard: its serving metrics and
// shed count. It lives in clusterMetrics rather than the Shard itself
// so NewClusterFrom can hand a replacement cluster the previous one's
// counters — epochs advancing by delta apply must not reset per-shard
// accounting.
type shardState struct {
	m    metrics
	shed atomic.Uint64
}

// Shard is one independently hot-swappable prefix range of a Cluster:
// its own atomic window pointer (readers never block on a swap), its
// own metrics, and its own in-flight budget for batch work (the
// load-shedding unit).
type Shard struct {
	data atomic.Pointer[shardData]
	st   *shardState
	// inflight counts batch tasks currently queued or running on this
	// shard; tryAcquire sheds when it would exceed budget.
	inflight atomic.Int64
	budget   int64
}

// tryAcquire reserves one in-flight batch slot, shedding (and counting
// the shed) when the shard's queue is already at budget.
func (sh *Shard) tryAcquire() bool {
	if sh.inflight.Add(1) > sh.budget {
		sh.inflight.Add(-1)
		sh.st.shed.Add(1)
		return false
	}
	return true
}

func (sh *Shard) release() { sh.inflight.Add(-1) }

// serveGroup answers this shard's members of a scattered batch: it
// scans the shard-id scratch for its id me, looks up every address it
// owns on the batch's epoch-consistent snapshot, and records the
// sub-batch in one metrics update (per-lookup latency is the sub-batch
// average, so batch serving never pays a clock read per address).
func (sh *Shard) serveGroup(snap *Snapshot, me uint8, mapper int, ips []uint32, shardOf []uint8, out []Answer) {
	t0 := time.Now()
	var counts [numMethods]uint32
	n := uint64(0)
	for j, ip := range ips {
		if shardOf[j] != me {
			continue
		}
		a, code := snap.lookup(mapper, ip)
		out[j] = a
		counts[code]++
		n++
	}
	sh.st.m.recordBatch(mapper, &counts, n, time.Since(t0), t0)
}

// serveGroupWire is serveGroup for the binary wire path: it writes
// this shard's members of a scattered batch as fixed-width answers at
// their disjoint positions in out.
func (sh *Shard) serveGroupWire(snap *Snapshot, me uint8, mapper int, ips []uint32, shardOf []uint8, out []byte) {
	t0 := time.Now()
	var counts [numMethods]uint32
	n := uint64(0)
	for j, ip := range ips {
		if shardOf[j] != me {
			continue
		}
		code := snap.wireAnswer(mapper, ip, out[j*WireAnswerSize:])
		counts[code]++
		n++
	}
	sh.st.m.recordBatch(mapper, &counts, n, time.Since(t0), t0)
}
