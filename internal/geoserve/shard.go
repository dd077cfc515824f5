package geoserve

import (
	"fmt"
	"sync/atomic"
)

// maxShards bounds a cluster's shard count so a batch can count its
// addresses per shard range in a fixed array on the stack.
const maxShards = 256

// splitSnapshot cuts the snapshot's ascending /24s into n contiguous
// runs balanced by /24 count (runs differ by at most one prefix).
// starts[i] is the lower bound of shard i's address range; starts[0] is
// 0 and the last shard extends to 0xFFFFFFFF, so the ranges partition
// the address space — every address has exactly one owner — and
// routing is one binary search. A shard holds no index of its own: its
// lookups are the snapshot's, byte-equivalent to the unsharded lookup
// by construction. One shard takes any snapshot, an empty one included.
func splitSnapshot(snap *Snapshot, n int) (starts []uint32, err error) {
	if n < 1 {
		return nil, fmt.Errorf("geoserve: shard count %d < 1", n)
	}
	if n > maxShards {
		return nil, fmt.Errorf("geoserve: shard count %d exceeds max %d", n, maxShards)
	}
	starts = make([]uint32, n)
	if n == 1 {
		return starts, nil
	}
	prefixes := snap.Prefixes()
	if n > len(prefixes) {
		return nil, fmt.Errorf("geoserve: %d shards over %d /24 intervals", n, len(prefixes))
	}
	for i := 1; i < n; i++ {
		starts[i] = prefixes[i*len(prefixes)/n]
	}
	return starts, nil
}

// shardRange reports shard i's inclusive address range under starts and
// how many of the snapshot's /24s and exact addresses fall inside it
// (/statusz reports them).
func shardRange(snap *Snapshot, starts []uint32, i int) (lo, hi uint32, prefixes, exactIPs int) {
	lo, hi = starts[i], 0xFFFFFFFF
	if i+1 < len(starts) {
		hi = starts[i+1] - 1
	}
	count := func(keys []uint32) (n int) {
		for _, k := range keys {
			if lo <= k && k <= hi {
				n++
			}
		}
		return n
	}
	for _, g := range snap.groups {
		if g.Base <= hi && lo <= g.Base|(1<<leafBits-1) {
			prefixes, exactIPs = prefixes+count(g.Prefixes), exactIPs+count(g.IPs)
		}
	}
	return lo, hi, prefixes, exactIPs
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

// Shard is one prefix range of a Cluster as the cluster accounts for
// it: the range's serving metrics, its shed count and the batches in
// flight on it, admitted against the cluster's per-shard budget (the
// load-shedding unit). Which addresses it owns is the published view's
// business, not the shard's. NewClusterFrom hands a replacement cluster
// its predecessor's Shards — epochs advancing by delta apply must not
// reset per-shard accounting.
type Shard struct {
	m    metrics
	shed atomic.Uint64
	// inflight counts the batches currently holding a slot on this
	// shard; tryAcquire sheds when one more would exceed budget.
	inflight atomic.Int64
}

// tryAcquire reserves one in-flight batch slot, shedding (and counting
// the shed) when the shard is already at budget.
func (sh *Shard) tryAcquire(budget int) bool {
	if sh.inflight.Add(1) > int64(budget) {
		sh.inflight.Add(-1)
		sh.shed.Add(1)
		return false
	}
	return true
}

func (sh *Shard) release() { sh.inflight.Add(-1) }
