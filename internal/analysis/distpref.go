package analysis

import (
	"math"
	"sort"

	"geonet/internal/geo"
	"geonet/internal/parallel"
	"geonet/internal/topo"
)

// DistPref holds the empirical distance preference function of Section
// V: f(d) = P[two nodes at distance d are directly connected],
// estimated as (#links in bin)/(#node pairs in bin) per equation (1).
type DistPref struct {
	Region   geo.Region
	BinMiles float64
	// D[i] is the left edge of bin i; F[i] the f(d) estimate;
	// LinkCount and PairCount the raw tallies.
	D         []float64
	F         []float64
	LinkCount []float64
	PairCount []float64
}

// DistancePreference estimates f(d) for nodes and links inside the
// region, using the paper's setup: 100 bins of the given size, with
// pair counts computed exactly by grouping nodes into distinct
// locations (nodes at city granularity collapse to a few thousand
// distinct points, making the quadratic pair count tractable and
// exact).
func DistancePreference(d *topo.Dataset, region geo.Region, binMiles float64, bins int) DistPref {
	sub := d.InRegion(region)
	dp := DistPref{
		Region:    region,
		BinMiles:  binMiles,
		D:         make([]float64, bins),
		F:         make([]float64, bins),
		LinkCount: make([]float64, bins),
		PairCount: make([]float64, bins),
	}
	for i := range dp.D {
		dp.D[i] = float64(i) * binMiles
	}
	maxD := binMiles * float64(bins)

	// Numerator: link length histogram.
	for _, l := range sub.Links {
		if l.LengthMi < maxD {
			dp.LinkCount[int(l.LengthMi/binMiles)]++
		}
	}

	// Denominator: pairwise distance histogram over distinct locations
	// with multiplicities.
	locs, counts := groupLocations(sub.Points())
	for i := range locs {
		// Same-location pairs: C(n,2) at distance 0.
		dp.PairCount[0] += counts[i] * (counts[i] - 1) / 2
	}
	pairHistogram(locs, counts, dp.PairCount, binMiles, maxD)

	for i := range dp.F {
		if dp.PairCount[i] > 0 {
			dp.F[i] = dp.LinkCount[i] / dp.PairCount[i]
		}
	}
	return dp
}

// milesPerDegLat is the great-circle distance spanned by one degree of
// latitude. Because the central angle between two points is at least
// their latitude difference, dLat*milesPerDegLat lower-bounds the
// haversine distance — the prune pairHistogram relies on.
const milesPerDegLat = geo.EarthRadiusMiles * math.Pi / 180

// pairHistogram adds every cross-location pair's multiplicity product
// to the bin of its great-circle distance. Locations are sorted by
// latitude so each row scans only the latitude band provably within
// maxD, then the O(n²) triangle is cut into strided row chunks: chunk
// c takes rows c, c+numChunks, ... so long (early) and short (late)
// rows spread evenly across chunks. Every chunk tallies into its own
// bin array and the arrays are merged in chunk order; the tallies are
// integer-valued, so the result is exact — and bit-identical — at any
// worker count.
func pairHistogram(locs []geo.Point, counts []float64, bins []float64, binMiles, maxD float64) {
	n := len(locs)
	if n < 2 {
		return
	}
	// Sort locations (with their multiplicities) south to north.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := locs[idx[a]], locs[idx[b]]
		if pa.Lat != pb.Lat {
			return pa.Lat < pb.Lat
		}
		return pa.Lon < pb.Lon
	})
	sorted := make([]geo.Point, n)
	weight := make([]float64, n)
	for i, j := range idx {
		sorted[i] = locs[j]
		weight[i] = counts[j]
	}

	numChunks := 64
	if numChunks > n {
		numChunks = n
	}
	rowRange := func(chunk int, local []float64) {
		for i := chunk; i < n; i += numChunks {
			pi, wi := sorted[i], weight[i]
			for j := i + 1; j < n; j++ {
				if (sorted[j].Lat-pi.Lat)*milesPerDegLat >= maxD {
					break // every later row is further north still
				}
				dist := geo.DistanceMiles(pi, sorted[j])
				if dist < maxD {
					local[int(dist/binMiles)] += wi * weight[j]
				}
			}
		}
	}
	merged := parallel.Reduce(numChunks,
		func(c int) []float64 {
			local := make([]float64, len(bins))
			rowRange(c, local)
			return local
		},
		parallel.SumFloats)
	parallel.SumFloats(bins, merged)
}

// groupLocations collapses points into distinct quantised locations
// with multiplicities.
func groupLocations(pts []geo.Point) ([]geo.Point, []float64) {
	type agg struct {
		p geo.Point
		n float64
	}
	m := map[geo.LocKey]*agg{}
	order := []geo.LocKey{}
	for _, p := range pts {
		k := p.Key()
		if a, ok := m[k]; ok {
			a.n++
		} else {
			m[k] = &agg{p: p, n: 1}
			order = append(order, k)
		}
	}
	locs := make([]geo.Point, 0, len(order))
	counts := make([]float64, 0, len(order))
	for _, k := range order {
		locs = append(locs, m[k].p)
		counts = append(counts, m[k].n)
	}
	return locs, counts
}

// SmallDFit fits ln f(d) = Slope*d + Intercept over bins with
// d < maxSmallD (Figure 5). Only bins with positive estimates enter the
// fit. In Waxman terms f_W(d) = beta*exp(-d/(L*alpha)): the decay
// length L*alpha is -1/Slope and beta is exp(Intercept).
type SmallDFit struct {
	Fit        Fit
	DecayMiles float64 // -1/slope
	Beta       float64 // exp(intercept)
	// Points used (for plotting Figure 5).
	D   []float64
	LnF []float64
}

// FitSmallD performs the semi-log fit of Figure 5.
func (dp *DistPref) FitSmallD(maxSmallD float64) SmallDFit {
	var out SmallDFit
	for i := range dp.D {
		if dp.D[i] >= maxSmallD {
			break
		}
		if dp.F[i] > 0 {
			out.D = append(out.D, dp.D[i])
			out.LnF = append(out.LnF, math.Log(dp.F[i]))
		}
	}
	out.Fit = LeastSquares(out.D, out.LnF)
	if out.Fit.Slope < 0 {
		out.DecayMiles = -1 / out.Fit.Slope
	}
	out.Beta = math.Exp(out.Fit.Intercept)
	return out
}

// LargeDResult holds the cumulated preference function of Figure 6: if
// f(d) is constant for large d, F(d) = sum_{d'<d} f(d') is linear.
type LargeDResult struct {
	D []float64
	F []float64 // cumulated
	// LinearFit over the large-d region; MeanF is the implied constant
	// f(d) level (slope per bin).
	LinearFit Fit
	MeanF     float64
}

// CumulateLargeD computes F(d) and fits its large-d linearity, starting
// the fit where the small-d regime ends.
func (dp *DistPref) CumulateLargeD(minD float64) LargeDResult {
	var out LargeDResult
	cum := 0.0
	var fitX, fitY []float64
	for i := range dp.D {
		cum += dp.F[i]
		out.D = append(out.D, dp.D[i])
		out.F = append(out.F, cum)
		if dp.D[i] >= minD && dp.PairCount[i] > 0 {
			fitX = append(fitX, dp.D[i])
			fitY = append(fitY, cum)
		}
	}
	out.LinearFit = LeastSquares(fitX, fitY)
	out.MeanF = out.LinearFit.Slope * dp.BinMiles
	return out
}

// SensitivityLimit is one row of Table V: the distance beyond which
// link formation looks distance-independent, and the fraction of links
// shorter than that limit.
type SensitivityLimit struct {
	LimitMiles    float64
	FracBelow     float64
	TotalLinks    float64
	SmallD        SmallDFit
	LargeD        LargeDResult
	SmallDCutoff  float64
	LargeDMinUsed float64
}

// FindSensitivityLimit intersects the exponential small-d fit with the
// mean large-d level: beta*exp(slope*d) = meanF  =>
// d* = ln(meanF/beta)/slope, then reports the fraction of links below
// d* (Section V: "Most links (from 75% to 95%) fall within the range of
// link lengths considered distance-sensitive").
func (dp *DistPref) FindSensitivityLimit(smallDCutoff, largeDMin float64) SensitivityLimit {
	small := dp.FitSmallD(smallDCutoff)
	large := dp.CumulateLargeD(largeDMin)

	out := SensitivityLimit{
		SmallD:        small,
		LargeD:        large,
		SmallDCutoff:  smallDCutoff,
		LargeDMinUsed: largeDMin,
	}
	if small.Fit.Slope >= 0 || small.Beta <= 0 || large.MeanF <= 0 {
		return out
	}
	out.LimitMiles = math.Log(large.MeanF/small.Beta) / small.Fit.Slope
	if out.LimitMiles < 0 {
		out.LimitMiles = 0
	}
	var below, total float64
	for i := range dp.D {
		total += dp.LinkCount[i]
		if dp.D[i]+dp.BinMiles <= out.LimitMiles {
			below += dp.LinkCount[i]
		}
	}
	out.TotalLinks = total
	if total > 0 {
		out.FracBelow = below / total
	}
	return out
}
