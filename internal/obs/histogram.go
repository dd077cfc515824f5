package obs

import (
	"sync/atomic"
	"time"
)

// Histogram is a concurrent latency histogram over a fixed geometric
// bucket ladder (~25% resolution from 32ns to ~69s). Record is
// lock-free (one atomic add after a small binary search) and
// allocation-free, so it can sit on the serving hot path.
type Histogram struct {
	counts [numLatBuckets]atomic.Uint64
}

// latBounds[i] is the inclusive lower bound (in ns) of bucket i:
// 1,2,...,7, then four sub-buckets per power of two.
var latBounds = buildLatBounds()

const numLatBuckets = 7 + 4*33

func buildLatBounds() []uint64 {
	bounds := []uint64{1, 2, 3, 4, 5, 6, 7}
	for exp := uint(3); exp < 36; exp++ {
		for sub := uint64(0); sub < 4; sub++ {
			bounds = append(bounds, (4+sub)<<(exp-2))
		}
	}
	return bounds
}

func latBucket(ns uint64) int {
	lo, hi := 0, len(latBounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if latBounds[mid] <= ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// RecordN adds n observations of the same duration — how batch serving
// folds a sub-batch into the histogram at its per-lookup average
// without a clock read per address.
func (h *Histogram) RecordN(d time.Duration, n uint64) {
	ns := uint64(d)
	if d <= 0 {
		ns = 1
	}
	h.counts[latBucket(ns)].Add(n)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile returns an approximation of the q-quantile (q in [0,1]):
// the lower bound of the bucket holding the target observation.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > target {
			return time.Duration(latBounds[i])
		}
	}
	return time.Duration(latBounds[len(latBounds)-1])
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.counts {
		if n := other.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
}

// exportBounds is the coarse fixed export ladder: upper bounds in ns at
// every other power of two (factor 4 apart), from 32ns to ~34s. Each
// bound is an exact edge of the fine recording ladder, so exported
// cumulative counts are exact, not interpolated. The ladder is fixed so
// /metrics bucket layouts are deterministic and comparable across runs.
var exportBounds = buildExportBounds()

func buildExportBounds() []uint64 {
	var b []uint64
	for exp := uint(5); exp <= 35; exp += 2 {
		b = append(b, uint64(1)<<exp)
	}
	return b
}

// Export returns the histogram folded onto the export ladder:
// counts[i] observations fell at or above the previous bound and below
// exportBounds[i]; counts[len(exportBounds)] is the overflow bucket. The
// fold is a sum of fine-bucket loads, so concurrent recording skews a
// bucket by at most the in-flight writes.
func (h *Histogram) Export() []uint64 {
	out := make([]uint64, len(exportBounds)+1)
	bi := 0
	for i := range h.counts {
		for bi < len(exportBounds) && latBounds[i] >= exportBounds[bi] {
			bi++
		}
		out[bi] += h.counts[i].Load()
	}
	return out
}

// ApproxSumNs estimates the sum of all recorded durations from bucket
// lower bounds — a deterministic scrape-time estimate (within the
// ladder's ~25% resolution) so the hot path never pays a per-record
// sum update.
func (h *Histogram) ApproxSumNs() uint64 {
	var sum uint64
	for i := range h.counts {
		sum += h.counts[i].Load() * latBounds[i]
	}
	return sum
}
