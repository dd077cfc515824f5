package analysis

import (
	"math"

	"geonet/internal/geo"
	"geonet/internal/parallel"
	"geonet/internal/topo"
)

// ASFootprint summarises one AS's geographic footprint for the serving
// layer: the Section VI size measures plus the convex-hull area of the
// AS's mapped nodes and an equivalent-circle radius. The radius is the
// confidence-style error bound geoserve attaches to answers attributed
// to the AS — an address whose location came from a whois HQ collapse
// can really be anywhere inside the AS's footprint, so the footprint
// radius bounds the plausible error the same way Figure 9's hulls
// bound dispersion.
type ASFootprint struct {
	ASN        int
	Interfaces int
	Locations  int
	Degree     int
	// Centroid is the mean node position (a deterministic center of
	// mass; meaningful as an anchor for RadiusMi, not as an answer).
	Centroid geo.Point
	// AreaSqMi is the world-Albers convex hull area of the AS's nodes
	// (zero for ASes seen at fewer than three distinct locations).
	AreaSqMi float64
	// RadiusMi is sqrt(AreaSqMi/pi): the radius of the circle with the
	// footprint's area.
	RadiusMi float64
}

// Footprints computes per-AS footprints from a dataset's AS
// aggregation, preserving ASAggregate's ascending-ASN order. Hulls are
// measured under the world Albers projection (the Figure 9(a)
// convention). The per-AS computations parallelize up to GOMAXPROCS
// with per-index result slots, so the output is identical at any
// worker count.
func Footprints(infos []topo.ASInfo) []ASFootprint {
	proj := geo.WorldAlbers()
	out := make([]ASFootprint, len(infos))
	parallel.ForEach(len(infos), func(i int) {
		info := infos[i]
		fp := ASFootprint{
			ASN:        info.ASN,
			Interfaces: info.Interfaces,
			Locations:  info.Locations,
			Degree:     info.Degree,
			AreaSqMi:   geo.HullArea(proj, info.Points),
		}
		fp.RadiusMi = math.Sqrt(fp.AreaSqMi / math.Pi)
		for _, p := range info.Points {
			fp.Centroid.Lat += p.Lat
			fp.Centroid.Lon += p.Lon
		}
		if n := float64(len(info.Points)); n > 0 {
			fp.Centroid.Lat /= n
			fp.Centroid.Lon /= n
		}
		out[i] = fp
	})
	return out
}
