package population

import (
	"fmt"
	"strings"

	"geonet/internal/geo"
	"geonet/internal/parallel"
	"geonet/internal/rng"
)

// Place is an inhabited location: a real major city from the embedded
// database or a synthetic town. Pop and Online are in persons (not
// millions).
type Place struct {
	Name   string
	Code   string // airport-style code used in router hostnames
	Econ   EconRegion
	Loc    geo.Point
	Pop    float64
	Online float64
	IsCity bool // true for embedded major cities
}

// World synthesis constants.
const (
	// ruralChunks is the number of diffuse rural population deposits
	// per economic region.
	ruralChunks = 1500
	// rasterArcMin is the population raster resolution.
	rasterArcMin = 15
	// maxTownsPerRegion caps synthetic town generation.
	maxTownsPerRegion = 4000
)

// World is the demographic substrate: places where people (and online
// users) live, plus a gridded population raster standing in for the
// CIESIN dataset.
type World struct {
	Places []Place
	Raster *Raster

	placesByEcon [NumEconRegions][]int // indices into Places
}

// Build synthesises a world. All randomness comes from the supplied
// stream, so a given seed is fully reproducible.
func Build(s *rng.Stream) *World {
	w := &World{Raster: NewRaster(rasterArcMin)}

	stats := Stats()
	// 1. Embedded major cities, with population in persons.
	cityPopM := make([]float64, NumEconRegions)
	for _, c := range MajorCities() {
		w.Places = append(w.Places, Place{
			Name: c.Name, Code: c.Code, Econ: c.Econ,
			Loc: geo.Pt(c.Lat, c.Lon), Pop: c.PopM * 1e6, IsCity: true,
		})
		cityPopM[c.Econ] += c.PopM
	}

	// 2. Synthetic towns fill TownShare of the gap between city
	// population and the regional target; the rest is rural.
	for _, st := range stats {
		gapM := st.PopulationM - cityPopM[st.Region]
		if gapM <= 0 {
			continue
		}
		townBudget := gapM * st.TownShare * 1e6
		townStream := s.Split("towns-" + st.Region.String())
		anchors := w.cityAnchors(st.Region)
		placed := 0.0
		for i := 0; placed < townBudget && i < maxTownsPerRegion; i++ {
			pop := townStream.BoundedPareto(st.TownMinM*1e6, st.TownMaxM*1e6, 1.1)
			if pop > townBudget-placed {
				pop = townBudget - placed
			}
			loc := w.placeTown(townStream, st, anchors)
			name := townName(townStream, st.Region, i)
			w.Places = append(w.Places, Place{
				Name: name, Code: townCode(name), Econ: st.Region,
				Loc: loc, Pop: pop,
			})
			placed += pop
		}
		// 3. Rural background: diffuse deposits directly into the
		// raster (no Place entries — no routers live there).
		ruralM := gapM*(1-st.TownShare)*1e6 + (townBudget - placed)
		ruralStream := s.Split("rural-" + st.Region.String())
		per := ruralM / ruralChunks
		for i := 0; i < ruralChunks; i++ {
			loc := randomInLand(ruralStream, st.Land)
			w.Raster.Deposit(loc, per)
		}
	}

	// 4. Deposit place populations into the raster and hand out online
	// users so each region's online total matches Table III exactly.
	placePop := make([]float64, NumEconRegions)
	for i := range w.Places {
		p := &w.Places[i]
		w.Raster.DepositSpread(p.Loc, p.Pop)
		placePop[p.Econ] += p.Pop
		w.placesByEcon[p.Econ] = append(w.placesByEcon[p.Econ], i)
	}
	for _, st := range stats {
		if placePop[st.Region] == 0 {
			continue
		}
		frac := st.OnlineM * 1e6 / placePop[st.Region]
		for _, idx := range w.placesByEcon[st.Region] {
			w.Places[idx].Online = w.Places[idx].Pop * frac
		}
	}
	return w
}

// cityAnchors returns indices of this region's major cities, for
// satellite-town placement.
func (w *World) cityAnchors(e EconRegion) []int {
	var out []int
	for i, p := range w.Places {
		if p.IsCity && p.Econ == e {
			out = append(out, i)
		}
	}
	return out
}

// placeTown picks a town location: mostly satellites of existing major
// cities (suburbs and exurbs cluster around metros, which is what makes
// patch populations heavy-tailed), otherwise uniform within the
// region's land boxes.
func (w *World) placeTown(s *rng.Stream, st EconStats, anchors []int) geo.Point {
	if len(anchors) > 0 && s.Bool(0.6) {
		weights := make([]float64, len(anchors))
		for i, idx := range anchors {
			weights[i] = w.Places[idx].Pop
		}
		anchor := w.Places[anchors[s.WeightedIndex(weights)]]
		for try := 0; try < 8; try++ {
			dist := 8 + s.Exp(35)
			p := geo.Destination(anchor.Loc, s.Float64()*360, dist)
			if inLand(p, st.Land) {
				return p
			}
		}
		// Fall through to uniform placement if every jitter left land.
	}
	return randomInLand(s, st.Land)
}

func inLand(p geo.Point, land []geo.Region) bool {
	for _, r := range land {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// randomInLand samples a point uniformly over the union of land boxes,
// weighting boxes by their (approximate) area.
func randomInLand(s *rng.Stream, land []geo.Region) geo.Point {
	if len(land) == 0 {
		panic("population: region with no land boxes")
	}
	weights := make([]float64, len(land))
	for i, r := range land {
		weights[i] = r.WidthDeg() * r.HeightDeg()
	}
	r := land[s.WeightedIndex(weights)]
	return geo.Pt(
		r.South+s.Float64()*r.HeightDeg(),
		r.West+s.Float64()*r.WidthDeg(),
	)
}

var townSyllables = []string{
	"ash", "bex", "cal", "dor", "el", "fen", "gar", "hol", "ket", "lun",
	"mar", "nor", "oak", "pel", "quin", "ros", "sut", "tor", "ul", "ver",
	"wes", "yar", "zel", "bran", "cor", "dale", "stav", "mill", "ford", "ton",
}

func townName(s *rng.Stream, e EconRegion, i int) string {
	a := townSyllables[s.Intn(len(townSyllables))]
	b := townSyllables[s.Intn(len(townSyllables))]
	return fmt.Sprintf("%s%s%d", a, b, i)
}

// townCode derives a 3-letter hostname token from a hash of the town
// name, spreading towns across the 26^3 code space. Collisions — with
// other towns or with real airport codes — remain possible and are
// deliberately kept: they are exactly the kind of ambiguity
// hostname-based geolocation suffers in practice.
func townCode(name string) string {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return string([]byte{
		byte('a' + h%26),
		byte('a' + (h/26)%26),
		byte('a' + (h/676)%26),
	})
}

// PlacesOf returns indices of places belonging to an economic region.
func (w *World) PlacesOf(e EconRegion) []int {
	return w.placesByEcon[e]
}

// PlacesIn returns indices of places inside a geographic region.
func (w *World) PlacesIn(r geo.Region) []int {
	var out []int
	for i, p := range w.Places {
		if r.Contains(p.Loc) {
			out = append(out, i)
		}
	}
	return out
}

// PopulationIn totals raster population within a region (persons).
func (w *World) PopulationIn(r geo.Region) float64 {
	return w.Raster.SumIn(r)
}

// OnlineIn totals online users of places within a region (persons).
func (w *World) OnlineIn(r geo.Region) float64 {
	total := 0.0
	for _, p := range w.Places {
		if r.Contains(p.Loc) {
			total += p.Online
		}
	}
	return total
}

// CodeDictionary returns the mapping from hostname token to place
// location that the geolocation tools use. Both airport codes and
// (sanitised) place names are included; when two places claim the same
// token, the more populous wins — mirroring how real hostname-mapping
// databases resolve code collisions (and inheriting their errors).
func (w *World) CodeDictionary() map[string]geo.Point {
	best := map[string]int{}
	claim := func(token string, idx int) {
		if token == "" {
			return
		}
		if prev, ok := best[token]; !ok || w.Places[idx].Pop > w.Places[prev].Pop {
			best[token] = idx
		}
	}
	for i, p := range w.Places {
		claim(p.Code, i)
		claim(sanitizeName(p.Name), i)
	}
	out := make(map[string]geo.Point, len(best))
	for tok, idx := range best {
		out[tok] = w.Places[idx].Loc
	}
	return out
}

func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			return r
		}
		return -1
	}, strings.ToLower(name))
}

// Raster is a uniform lat/lon population grid — the stand-in for the
// CIESIN gridded population of the world.
type Raster struct {
	arcMin float64
	deg    float64
	cols   int
	rows   int
	cells  []float64
}

// NewRaster creates an empty world-covering raster.
func NewRaster(arcMin float64) *Raster {
	deg := arcMin / 60
	cols := int(360/deg + 0.5)
	rows := int(180/deg + 0.5)
	return &Raster{arcMin: arcMin, deg: deg, cols: cols, rows: rows,
		cells: make([]float64, cols*rows)}
}

func (r *Raster) index(p geo.Point) int {
	col := int((p.Lon + 180) / r.deg)
	row := int((p.Lat + 90) / r.deg)
	if col < 0 {
		col = 0
	}
	if col >= r.cols {
		col = r.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= r.rows {
		row = r.rows - 1
	}
	return row*r.cols + col
}

// Deposit adds population mass at a point.
func (r *Raster) Deposit(p geo.Point, pop float64) {
	r.cells[r.index(p)] += pop
}

// DepositSpread adds population with a small spatial spread: 60% in the
// centre cell and 5% in each of the 8 neighbours, approximating how a
// metro area spills over raster cells.
func (r *Raster) DepositSpread(p geo.Point, pop float64) {
	idx := r.index(p)
	row, col := idx/r.cols, idx%r.cols
	r.cells[idx] += pop * 0.6
	share := pop * 0.4 / 8
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			rr, cc := row+dr, col+dc
			if rr < 0 || rr >= r.rows {
				continue
			}
			// Wrap longitude.
			cc = (cc + r.cols) % r.cols
			r.cells[rr*r.cols+cc] += share
		}
	}
}

// SumIn totals population over cells whose centres fall inside the
// region.
func (r *Raster) SumIn(reg geo.Region) float64 {
	total := 0.0
	for row := 0; row < r.rows; row++ {
		lat := -90 + (float64(row)+0.5)*r.deg
		if lat < reg.South || lat >= reg.North {
			continue
		}
		base := row * r.cols
		for col := 0; col < r.cols; col++ {
			lon := -180 + (float64(col)+0.5)*r.deg
			if lon < reg.West || lon >= reg.East {
				continue
			}
			total += r.cells[base+col]
		}
	}
	return total
}

// Total returns the world population in the raster.
func (r *Raster) Total() float64 {
	t := 0.0
	for _, c := range r.cells {
		t += c
	}
	return t
}

// TallyPatches sums raster population into the patches of a PatchGrid,
// exactly how the paper tallies CIESIN population per 75-arc-minute
// patch for Figure 2.
// The raster scan fans out over fixed bands of rows with per-band
// patch arrays merged in band order; the partition never depends on
// the worker count, so the float sums are bit-identical at any
// parallelism.
func (r *Raster) TallyPatches(g *geo.PatchGrid) []float64 {
	bands := parallel.Chunks(r.rows, 64)
	out := parallel.Reduce(len(bands),
		func(b int) []float64 {
			local := make([]float64, g.Cells())
			for row := bands[b][0]; row < bands[b][1]; row++ {
				lat := -90 + (float64(row)+0.5)*r.deg
				base := row * r.cols
				for col := 0; col < r.cols; col++ {
					if r.cells[base+col] == 0 {
						continue
					}
					lon := -180 + (float64(col)+0.5)*r.deg
					if i := g.Index(geo.Pt(lat, lon)); i >= 0 {
						local[i] += r.cells[base+col]
					}
				}
			}
			return local
		},
		parallel.SumFloats)
	if out == nil {
		out = make([]float64, g.Cells())
	}
	return out
}
