// Package population builds the world model that substitutes for the
// paper's two demographic data sources: CIESIN's gridded population of
// the world and Nua's "How Many Online" survey (both cited in Section
// IV). It combines an embedded database of real major cities with
// synthetic Zipf-sized towns and a rural background, normalised so each
// economic region matches the population and online-user totals the
// paper reports in Table III.
package population

import "geonet/internal/geo"

// EconRegion identifies one of the economic survey regions of Table
// III, plus a catch-all for the rest of the world.
type EconRegion int

const (
	EconAfrica EconRegion = iota
	EconSouthAmerica
	EconMexico
	EconWesternEurope
	EconJapan
	EconAustralia
	EconUSA
	EconRestOfWorld
	NumEconRegions
)

// String returns the paper's name for the region.
func (e EconRegion) String() string {
	switch e {
	case EconAfrica:
		return "Africa"
	case EconSouthAmerica:
		return "South America"
	case EconMexico:
		return "Mexico"
	case EconWesternEurope:
		return "W. Europe"
	case EconJapan:
		return "Japan"
	case EconAustralia:
		return "Australia"
	case EconUSA:
		return "USA"
	case EconRestOfWorld:
		return "Rest of World"
	}
	return "unknown"
}

// EconStats carries the demographic targets for one economic region.
// PopulationM and OnlineM are in millions and are taken directly from
// Table III of the paper (the Nua substitution described in DESIGN.md);
// Rest-of-World is derived from the World row minus the named regions.
type EconStats struct {
	Region EconRegion
	Box    geo.Region // survey bounding box (Table III row)
	// PopulationM is the total population target in millions.
	PopulationM float64
	// OnlineM is the online-user target in millions.
	OnlineM float64
	// TownShare is the fraction of the non-city population gap filled
	// by discrete synthetic towns (the rest becomes diffuse rural
	// background). Developed regions are more urbanised.
	TownShare float64
	// TownMinM/TownMaxM bound the Pareto town sizes (millions).
	TownMinM, TownMaxM float64
	// Land lists the boxes within which synthetic towns and rural
	// population may be placed (a crude land mask).
	Land []geo.Region
}

// Stats returns the per-region demographic table. Population and online
// totals for the named regions are Table III verbatim; the World row of
// Table III (5,653M people, 513M online) is preserved by construction
// because Rest-of-World absorbs the difference.
func Stats() []EconStats {
	return []EconStats{
		{
			Region: EconAfrica, Box: geo.Africa,
			PopulationM: 837, OnlineM: 4.15,
			TownShare: 0.35, TownMinM: 0.01, TownMaxM: 1.5,
			Land: []geo.Region{
				{Name: "africa-land", North: 36, South: -34, West: -17, East: 43.5},
			},
		},
		{
			Region: EconSouthAmerica, Box: geo.SouthAmerica,
			PopulationM: 341, OnlineM: 21.9,
			TownShare: 0.4, TownMinM: 0.01, TownMaxM: 1.5,
			Land: []geo.Region{
				{Name: "sam-north", North: 10, South: -20, West: -79, East: -36},
				{Name: "sam-south", North: -20, South: -54, West: -73, East: -54},
			},
		},
		{
			Region: EconMexico, Box: geo.Mexico,
			PopulationM: 154, OnlineM: 3.42,
			TownShare: 0.45, TownMinM: 0.008, TownMaxM: 1.2,
			Land: []geo.Region{
				{Name: "mex-main", North: 24.5, South: 14, West: -106, East: -87},
				{Name: "centam", North: 14, South: 8, West: -92, East: -78},
			},
		},
		{
			Region: EconWesternEurope, Box: geo.WesternEurope,
			PopulationM: 366, OnlineM: 143,
			TownShare: 0.8, TownMinM: 0.005, TownMaxM: 1.0,
			Land: []geo.Region{
				{Name: "iberia", North: 43.6, South: 37, West: -9, East: 3},
				{Name: "france", North: 51, South: 43.6, West: -4.5, East: 8},
				{Name: "britain", North: 58.5, South: 50.3, West: -9.5, East: 1.6},
				{Name: "central-eu", North: 54.8, South: 45.6, West: 5.6, East: 15},
				{Name: "italy", North: 45.6, South: 37.2, West: 7, East: 18},
				{Name: "east-central", North: 54.5, South: 45.8, West: 15, East: 24.8},
				{Name: "scandinavia-s", North: 59.9, South: 55, West: 5, East: 18},
				{Name: "greece", North: 41.5, South: 37, West: 20, East: 24.9},
			},
		},
		{
			Region: EconJapan, Box: geo.JapanEcon,
			PopulationM: 136, OnlineM: 47.1,
			TownShare: 0.85, TownMinM: 0.005, TownMaxM: 0.8,
			Land: []geo.Region{
				{Name: "kyushu", North: 34.3, South: 31, West: 129.6, East: 132},
				{Name: "chugoku-shikoku", North: 35.6, South: 33, West: 132, East: 136},
				{Name: "kansai-kanto", North: 37.4, South: 34, West: 136, East: 141},
				{Name: "tohoku", North: 41.3, South: 37.4, West: 139, East: 141.8},
				{Name: "hokkaido", North: 45.4, South: 41.6, West: 140.2, East: 145.5},
			},
		},
		{
			Region: EconAustralia, Box: geo.Australia,
			PopulationM: 18, OnlineM: 10.1,
			TownShare: 0.8, TownMinM: 0.004, TownMaxM: 0.5,
			Land: []geo.Region{
				{Name: "au-east", North: -25, South: -38.5, West: 144, East: 153.6},
				{Name: "au-west", North: -31, South: -35, West: 115, East: 119},
				{Name: "au-south", North: -33, South: -36, West: 137, East: 141},
				{Name: "tasmania", North: -40.8, South: -43.5, West: 145, East: 148.4},
				{Name: "au-north", North: -12, South: -20, West: 130, East: 147},
			},
		},
		{
			Region: EconUSA, Box: geo.USAEcon,
			PopulationM: 299, OnlineM: 166,
			TownShare: 0.8, TownMinM: 0.005, TownMaxM: 1.5,
			Land: []geo.Region{
				{Name: "us-main", North: 49, South: 25.2, West: -124, East: -67.5},
			},
		},
		{
			Region: EconRestOfWorld, Box: geo.World,
			// World row (5,653M / 513M) minus the named regions.
			PopulationM: 5653 - (837 + 341 + 154 + 366 + 136 + 18 + 299),
			OnlineM:     513 - (4.15 + 21.9 + 3.42 + 143 + 47.1 + 10.1 + 166),
			TownShare:   0.25, TownMinM: 0.02, TownMaxM: 3.0,
			Land: []geo.Region{
				{Name: "china-east", North: 41, South: 21, West: 103, East: 122},
				{Name: "india", North: 31, South: 8, West: 69, East: 89},
				{Name: "se-asia", North: 21, South: -9, West: 95, East: 122},
				{Name: "korea", North: 39, South: 34, West: 126, East: 129.5},
				{Name: "russia-west", North: 60, South: 50, West: 30, East: 60},
				{Name: "mideast", North: 42, South: 24, West: 44, East: 55},
				{Name: "nz", North: -34.5, South: -46.5, West: 166.5, East: 178.5},
				{Name: "canada-north", North: 54, South: 50, West: -125, East: -60},
			},
		},
	}
}
