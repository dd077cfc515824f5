package main

import (
	"math"
	"slices"
	"time"
)

// sliceLen is the length of the slices a window is cut into for rate
// and latency; a window's value is the median over its slices.
// Interference on a shared box comes in bursts of 0.1 to 3 s, and the
// median of many short slices ignores them where the median of six long
// ones averages them in.
const sliceLen = 100 * time.Millisecond

// sample is one completed closed-loop request.
type sample struct {
	end     time.Duration // reply time, since the loop started
	dur     time.Duration
	lookups int32
	ok      bool
}

// sliceStat summarises the requests that completed inside one slice.
// A failed request counts as sent, as outside the latency limit, and
// contributes no lookups.
type sliceStat struct {
	reqs, failed, within int
	lookups              float64
	seconds              float64
	p50us, p90us, p99us  float64
	maxMs                float64
}

func (s sliceStat) lookupsPerS() float64 { return s.lookups / s.seconds }

func (s sliceStat) withinFrac() float64 {
	if s.reqs == 0 {
		return 0
	}
	return float64(s.within) / float64(s.reqs)
}

// cutSlices cuts n slices of sliceLen starting at from. A request
// counts, with its latency, in the slice its reply fell in; requests
// that ended outside (warm-up, or the last one running past the window)
// are dropped. Its lookups are shared among the slices it was in flight
// in, by time, so a slice's rate does not move in steps of one request.
func cutSlices(clients [][]sample, from, sliceLen time.Duration, n int, limit time.Duration) []sliceStat {
	stats := make([]sliceStat, n)
	durs := make([][]float64, n)
	to := from + time.Duration(n)*sliceLen
	for _, samples := range clients {
		for _, sm := range samples {
			if sm.ok && sm.dur > 0 {
				perNs := float64(sm.lookups) / float64(sm.dur)
				for t := max(sm.end-sm.dur, from); t < min(sm.end, to); {
					i := int((t - from) / sliceLen)
					next := min(sm.end, from+time.Duration(i+1)*sliceLen)
					stats[i].lookups += perNs * float64(next-t)
					t = next
				}
			}
			if sm.end < from || sm.end >= to {
				continue
			}
			i := int((sm.end - from) / sliceLen)
			st := &stats[i]
			st.reqs++
			if !sm.ok {
				st.failed++
				continue
			}
			if sm.dur <= limit {
				st.within++
			}
			durs[i] = append(durs[i], float64(sm.dur))
		}
	}
	for i := range stats {
		st := &stats[i]
		st.seconds = sliceLen.Seconds()
		d := durs[i]
		if len(d) == 0 {
			continue
		}
		slices.Sort(d)
		st.p50us = quantile(d, 0.50) / 1e3
		st.p90us = quantile(d, 0.90) / 1e3
		st.p99us = quantile(d, 0.99) / 1e3
		st.maxMs = d[len(d)-1] / 1e6
	}
	return stats
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 0:
		return (s[n/2-1] + s[n/2]) / 2
	default:
		return s[n/2]
	}
}

// summary is a metric's value with the samples behind it: the value
// (their median, unless overRounds replaces it), the extremes, the
// count, and the spread as a share of the median: the distance between
// the quartiles, or between the extremes when there are fewer than four
// samples.
type summary struct {
	Value, Min, Max, Spread float64
	N                       int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s := summary{Value: medianSorted(sorted), Min: sorted[0], Max: sorted[len(sorted)-1], N: len(sorted)}
	if s.Value != 0 {
		lo, hi := s.Min, s.Max
		if s.N >= 4 {
			lo, hi = quantile(sorted, 0.25), quantile(sorted, 0.75)
		}
		s.Spread = (hi - lo) / math.Abs(s.Value)
	}
	return s
}

// overSlices summarises one per-slice quantity.
func overSlices(stats []sliceStat, f func(sliceStat) float64) summary {
	xs := make([]float64, len(stats))
	for i, st := range stats {
		xs[i] = f(st)
	}
	return summarize(xs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
