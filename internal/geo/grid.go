package geo

import (
	"fmt"

	"geonet/internal/parallel"
)

// PatchGrid subdivides a Region into patches of a fixed angular size,
// as in Section IV-B of the paper: "we subdivided each region into
// patches of size 75 arc-minutes x 75 arc-minutes". Patch indices are
// row-major from the south-west corner.
type PatchGrid struct {
	Region Region
	ArcMin float64 // patch edge length in arc-minutes

	deg  float64 // patch edge length in degrees
	cols int
	rows int
}

// NewPatchGrid builds a grid over region with square patches of the
// given size in arc-minutes. The paper uses 75 arc-minutes (~90 miles
// on a side at the latitudes studied).
func NewPatchGrid(region Region, arcMin float64) *PatchGrid {
	if arcMin <= 0 {
		panic(fmt.Sprintf("geo: non-positive patch size %v", arcMin))
	}
	deg := arcMin / 60
	cols := int(region.WidthDeg()/deg) + 1
	rows := int(region.HeightDeg()/deg) + 1
	return &PatchGrid{Region: region, ArcMin: arcMin, deg: deg, cols: cols, rows: rows}
}

// Cells returns the total number of patches in the grid.
func (g *PatchGrid) Cells() int { return g.cols * g.rows }

// Index returns the patch index for a point, or -1 if the point lies
// outside the region.
func (g *PatchGrid) Index(p Point) int {
	if !g.Region.Contains(p) {
		return -1
	}
	col := int((p.Lon - g.Region.West) / g.deg)
	row := int((p.Lat - g.Region.South) / g.deg)
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return row*g.cols + col
}

// Center returns the centre point of the patch with the given index.
func (g *PatchGrid) Center(idx int) Point {
	row := idx / g.cols
	col := idx % g.cols
	return Point{
		Lat: g.Region.South + (float64(row)+0.5)*g.deg,
		Lon: g.Region.West + (float64(col)+0.5)*g.deg,
	}
}

// tallyParallelMin is the point count below which the fan-out costs
// more than the scan.
const tallyParallelMin = 1 << 14

// Tally accumulates a count per patch for the given points, returning a
// slice of length Cells(). Points outside the region are ignored. Large
// point sets are tallied in fixed chunks with per-chunk count arrays
// summed in chunk order; counts are integers, so the result is exact at
// any parallelism.
func (g *PatchGrid) Tally(points []Point) []float64 {
	if len(points) < tallyParallelMin {
		counts := make([]float64, g.Cells())
		g.tallyRange(points, counts)
		return counts
	}
	chunks := parallel.Chunks(len(points), 64)
	return parallel.Reduce(len(chunks),
		func(c int) []float64 {
			counts := make([]float64, g.Cells())
			g.tallyRange(points[chunks[c][0]:chunks[c][1]], counts)
			return counts
		},
		parallel.SumFloats)
}

func (g *PatchGrid) tallyRange(points []Point, counts []float64) {
	for _, p := range points {
		if i := g.Index(p); i >= 0 {
			counts[i]++
		}
	}
}
