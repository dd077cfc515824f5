// Package geo provides the geographic primitives used throughout the
// reproduction: latitude/longitude points, great-circle distances in
// statute miles, the latitude/longitude bounding regions studied by the
// paper (Tables II and IV), arc-minute patch grids (Section IV-B), an
// Albers equal-area projection (Section VI-B), planar convex hulls, and
// box-counting fractal dimension estimation (Section II).
//
// Distances are in statute miles everywhere, matching the units used in
// every figure and table of the paper.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMiles is the mean Earth radius in statute miles.
const EarthRadiusMiles = 3958.7613

// Point is a geographic location in decimal degrees. Latitude is
// positive north, longitude positive east.
type Point struct {
	Lat float64
	Lon float64
}

// Pt is shorthand for constructing a Point.
func Pt(lat, lon float64) Point { return Point{Lat: lat, Lon: lon} }

// Valid reports whether the point lies in the conventional
// latitude/longitude ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders the point as "lat,lon" with 4 decimal places
// (roughly 11 m of precision, far below city granularity).
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

// Key returns a coarse quantised form of the point usable as a map key
// for "distinct location" counting. The paper counts distinct locations
// at the granularity its mappers emit (city centres); quantising to
// 1/100 degree (~0.7 mi) preserves that distinction while tolerating
// floating-point noise.
func (p Point) Key() LocKey {
	return LocKey{
		Lat: int32(math.Round(p.Lat * 100)),
		Lon: int32(math.Round(p.Lon * 100)),
	}
}

// LocKey is a quantised location identity (1/100-degree cells).
type LocKey struct {
	Lat int32
	Lon int32
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceMiles returns the great-circle distance between two points in
// statute miles, computed with the haversine formula (numerically stable
// for the small separations that dominate link lengths).
func DistanceMiles(a, b Point) float64 {
	lat1 := deg2rad(a.Lat)
	lat2 := deg2rad(b.Lat)
	dLat := lat2 - lat1
	dLon := deg2rad(b.Lon - a.Lon)

	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMiles * math.Asin(math.Sqrt(h))
}

// Destination returns the point reached by travelling dist miles from p
// along the given initial bearing (degrees clockwise from north). Used
// to jitter router locations around city centres.
func Destination(p Point, bearingDeg, dist float64) Point {
	br := deg2rad(bearingDeg)
	lat1 := deg2rad(p.Lat)
	lon1 := deg2rad(p.Lon)
	ad := dist / EarthRadiusMiles

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(br))
	lon2 := lon1 + math.Atan2(
		math.Sin(br)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2),
	)
	// Normalise longitude to [-180, 180).
	lonDeg := math.Mod(rad2deg(lon2)+540, 360) - 180
	return Point{Lat: rad2deg(lat2), Lon: lonDeg}
}
