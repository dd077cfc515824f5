package geo

import (
	"math"

	"geonet/internal/parallel"
)

// BoxCountResult holds the box-counting measurements at each scale and
// the fitted fractal dimension.
type BoxCountResult struct {
	// BoxDeg[i] is the box edge length in degrees at scale i;
	// Occupied[i] is the number of boxes containing at least one point.
	BoxDeg    []float64
	Occupied  []int
	Dimension float64 // slope of log N(s) vs log (1/s)
}

// BoxCountDimension estimates the fractal (box-counting) dimension of a
// point set, the method Yook, Jeong and Barabási applied to routers and
// population and which the paper reports confirming (~1.5) for its
// datasets (Section II). Boxes are square in degree space, halving in
// size at each scale from coarse to fine.
func BoxCountDimension(pts []Point, region Region, scales int) BoxCountResult {
	if scales < 2 {
		scales = 2
	}
	res := BoxCountResult{}
	base := math.Max(region.WidthDeg(), region.HeightDeg())
	// Each scale rescans the whole point set independently, so the
	// scales fan out across workers; per-scale counts are assembled in
	// scale order, identical at any parallelism.
	type scaleCount struct {
		size     float64
		occupied int
	}
	perScale := parallel.Map(scales, func(s int) scaleCount {
		size := base / math.Pow(2, float64(s+1))
		occupied := map[[2]int]struct{}{}
		for _, p := range pts {
			if !region.Contains(p) {
				continue
			}
			i := int((p.Lon - region.West) / size)
			j := int((p.Lat - region.South) / size)
			occupied[[2]int{i, j}] = struct{}{}
		}
		return scaleCount{size: size, occupied: len(occupied)}
	})
	var logInv, logN []float64
	for _, sc := range perScale {
		if sc.occupied == 0 {
			continue
		}
		res.BoxDeg = append(res.BoxDeg, sc.size)
		res.Occupied = append(res.Occupied, sc.occupied)
		logInv = append(logInv, math.Log(1/sc.size))
		logN = append(logN, math.Log(float64(sc.occupied)))
	}
	if len(logN) >= 2 {
		res.Dimension = slope(logInv, logN)
	}
	return res
}

// slope computes the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// DistinctLocations returns the number of distinct quantised locations
// in a point set — the paper's "number of locations" AS size measure.
func DistinctLocations(pts []Point) int {
	seen := make(map[LocKey]struct{}, len(pts))
	for _, p := range pts {
		seen[p.Key()] = struct{}{}
	}
	return len(seen)
}
