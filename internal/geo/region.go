package geo

// Region is a latitude/longitude bounding box. The paper delineates all
// of its study regions with simple latitude/longitude boundaries
// (footnote 2), so a box is the exact primitive needed. A Region never
// crosses the antimeridian (none of the paper's regions do).
type Region struct {
	Name  string
	North float64 // northern boundary, degrees latitude
	South float64 // southern boundary
	West  float64 // western boundary, degrees longitude
	East  float64 // eastern boundary
}

// Contains reports whether the point lies within the region
// (inclusive south/west edges, exclusive north/east edges, so adjacent
// regions partition points without double counting).
func (r Region) Contains(p Point) bool {
	return p.Lat >= r.South && p.Lat < r.North && p.Lon >= r.West && p.Lon < r.East
}

// WidthDeg and HeightDeg return the longitudinal and latitudinal extent
// in degrees.
func (r Region) WidthDeg() float64  { return r.East - r.West }
func (r Region) HeightDeg() float64 { return r.North - r.South }

// MaxSpanMiles returns the great-circle distance between opposite
// corners of the region — the natural upper bound for link-length
// binning within the region.
func (r Region) MaxSpanMiles() float64 {
	return DistanceMiles(Point{r.South, r.West}, Point{r.North, r.East})
}

// The three analysis regions of Table II. These boundaries are copied
// verbatim from the paper.
var (
	// US: 50N–25N, 150W–45W.
	US = Region{Name: "US", North: 50, South: 25, West: -150, East: -45}
	// Europe: 58N–42N, 5W–22E.
	Europe = Region{Name: "Europe", North: 58, South: 42, West: -5, East: 22}
	// Japan: 60N–30N, 130E–150E.
	Japan = Region{Name: "Japan", North: 60, South: 30, West: 130, East: 150}
)

// The homogeneity-test regions of Figure 3 / Table IV. The US box is
// split along 37.5N into northern and southern halves; the Central
// America box sits below it.
var (
	NorthernUS     = Region{Name: "Northern US", North: 50, South: 37.5, West: -150, East: -45}
	SouthernUS     = Region{Name: "Southern US", North: 37.5, South: 25, West: -150, East: -45}
	CentralAmerica = Region{Name: "Central Am.", North: 25, South: 7, West: -118, East: -77}
)

// World covers the whole globe.
var World = Region{Name: "World", North: 90.0001, South: -90, West: -180, East: 180.0001}

// The economic survey regions of Table III. Names are approximate, as
// in the paper ("we are not working with precise political boundaries").
var (
	// Africa's eastern edge stops at 44E so the box excludes the
	// Arabian peninsula (a box cannot follow the Red Sea; the paper
	// accepts the same kind of imprecision).
	Africa       = Region{Name: "Africa", North: 37, South: -35, West: -18, East: 44}
	SouthAmerica = Region{Name: "South America", North: 13, South: -56, West: -82, East: -34}
	// Mexico in Table III uses the same box as Central America in
	// Table IV (both report a population of 154M).
	Mexico = Region{Name: "Mexico", North: 25, South: 7, West: -118, East: -77}
	// W. Europe's southern edge at 37N keeps the North African coast
	// in the Africa box; the two boxes tile without overlap.
	WesternEurope = Region{Name: "W. Europe", North: 60, South: 37, West: -10, East: 25}
	// Japan's western edge at 129.5E keeps Busan (Korea) out.
	JapanEcon = Region{Name: "Japan", North: 46, South: 30, West: 129.5, East: 146}
	Australia = Region{Name: "Australia", North: -10, South: -44, West: 112, East: 154}
	// USA reuses the Table II analysis box (which includes southern
	// Canada); its population target is normalised to the Table III row.
	USAEcon = Region{Name: "USA", North: 50, South: 25, West: -150, East: -45}
)

// AnalysisRegions are the per-region panels used by Figures 2, 4, 5, 6
// and Tables V, VI.
func AnalysisRegions() []Region { return []Region{US, Europe, Japan} }

// SurveyRegions are the rows of Table III, in the paper's order
// (World last).
func SurveyRegions() []Region {
	return []Region{Africa, SouthAmerica, Mexico, WesternEurope, JapanEcon, Australia, USAEcon, World}
}

// HomogeneityRegions are the rows of Table IV.
func HomogeneityRegions() []Region {
	return []Region{NorthernUS, SouthernUS, CentralAmerica}
}
