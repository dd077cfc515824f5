package core

import (
	"fmt"
	"math"

	"geonet/internal/analysis"
	"geonet/internal/geo"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(p *Pipeline) Report
}

// distParams are the Section V analysis parameters per region: the
// paper's bin sizes (Figure 4 captions: 35/15/11 miles), the small-d
// fit ranges (Figure 5 x-axes) and where the large-d regime is averaged.
type distParams struct {
	region       geo.Region
	binMiles     float64
	smallDCutoff float64
	largeDMin    float64
}

func sectionVParams() []distParams {
	return []distParams{
		{geo.US, 35, 250, 1000},
		{geo.Europe, 15, 300, 400},
		{geo.Japan, 11, 200, 250},
	}
}

// bothDatasets is the order the paper's figure panels use.
func bothDatasets() []string { return []string{"mercator", "skitter"} }

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Sizes of processed datasets", expTable1},
		{"table2", "Boundaries of regions studied", expTable2},
		{"table3", "Variation in people/interface density across regions", expTable3},
		{"table4", "Testing for homogeneity", expTable4},
		{"figure1", "Regions studied: mapped node scatter", expFigure1},
		{"figure2", "Router/interface density vs population density", expFigure2},
		{"figure3", "Regions used to test for homogeneity", expFigure3},
		{"figure4", "Empirical distance preference function", expFigure4},
		{"figure5", "Distance preference, small d, semi-log fit", expFigure5},
		{"figure6", "Cumulated distance preference, large d", expFigure6},
		{"table5", "Limits of distance sensitivity", expTable5},
		{"figure7", "Distributions of AS sizes", expFigure7},
		{"figure8", "Scatterplots of AS size measures", expFigure8},
		{"figure9", "CDFs of AS convex hull size", expFigure9},
		{"figure10", "Size measures vs convex hull", expFigure10},
		{"table6", "Intradomain vs interdomain links", expTable6},
		{"appendix", "EdgeScape replication of the main results (Figs. 11-17)", expAppendix},
		{"fractal", "Box-counting fractal dimension of node locations", expFractal},
	}
}

func f(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

func expTable1(p *Pipeline) Report {
	r := Report{ID: "table1", Title: "Sizes of processed datasets"}
	t := Table{
		Header: []string{"Dataset", "Nodes", "Links", "Locations"},
	}
	for _, combo := range []Combo{
		{"mercator", "ixmapper"}, {"skitter", "ixmapper"},
		{"mercator", "edgescape"}, {"skitter", "edgescape"},
	} {
		ds := p.Datasets[combo]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s, %s", combo.Mapper, combo.Dataset),
			d(len(ds.Nodes)), d(len(ds.Links)), d(ds.NumLocations()),
		})
	}
	r.Tables = append(r.Tables, t)
	sk := p.Dataset("skitter", "ixmapper")
	r.AddNote("skitter raw: %d interfaces, %d links; discarded %d dest-list, %d private, %d unmappable",
		sk.Stats.RawNodes, sk.Stats.RawLinks, sk.Stats.DiscardedDest,
		sk.Stats.DiscardedPrivate, sk.Stats.DiscardedUnmapped)
	mc := p.Dataset("mercator", "ixmapper")
	r.AddNote("mercator: %d location-tie routers discarded (paper: 2.9%%)", mc.Stats.DiscardedTies)
	return r
}

func expTable2(p *Pipeline) Report {
	r := Report{ID: "table2", Title: "Boundaries of regions studied"}
	t := Table{Header: []string{"Name", "North", "South", "West", "East"}}
	for _, reg := range geo.AnalysisRegions() {
		t.Rows = append(t.Rows, []string{
			reg.Name, f0(reg.North), f0(reg.South), f0(reg.West), f0(reg.East),
		})
	}
	r.Tables = append(r.Tables, t)
	return r
}

func expTable3(p *Pipeline) Report {
	r := Report{ID: "table3", Title: "People/interface density across regions"}
	ds := p.Dataset("skitter", "ixmapper")
	t := Table{Header: []string{
		"Region", "Population(M)", "Interfaces", "PeoplePerIface", "Online(M)", "OnlinePerIface"}}
	var rows []analysis.RegionDensityRow
	for _, reg := range geo.SurveyRegions() {
		row := analysis.RegionDensity(ds, p.World, reg)
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			reg.Name, f0(row.PopulationM), d(row.Nodes),
			f0(row.PeoplePerNode), f(row.OnlineM), f0(row.OnlinePerNode),
		})
	}
	r.Tables = append(r.Tables, t)
	// Exclude the aggregate World row from the variability comparison.
	named := rows[:len(rows)-1]
	r.AddNote("people/interface variability: %.0fx (paper: >100x)",
		analysis.VariabilityRatio(named, false))
	r.AddNote("online/interface variability: %.1fx (paper: ~4x)",
		analysis.VariabilityRatio(named, true))
	return r
}

func expTable4(p *Pipeline) Report {
	r := Report{ID: "table4", Title: "Testing for homogeneity"}
	ds := p.Dataset("skitter", "ixmapper")
	t := Table{Header: []string{"Region", "Population(M)", "Interfaces", "PeoplePerIface"}}
	var north, south float64
	for _, reg := range geo.HomogeneityRegions() {
		row := analysis.RegionDensity(ds, p.World, reg)
		t.Rows = append(t.Rows, []string{
			reg.Name, f0(row.PopulationM), d(row.Nodes), f0(row.PeoplePerNode)})
		switch reg.Name {
		case "Northern US":
			north = row.PeoplePerNode
		case "Southern US":
			south = row.PeoplePerNode
		}
	}
	r.Tables = append(r.Tables, t)
	if north > 0 && south > 0 {
		ratio := math.Max(north, south) / math.Min(north, south)
		r.AddNote("US halves differ by %.2fx (homogeneous); Central America is the outlier", ratio)
	}
	return r
}

func expFigure1(p *Pipeline) Report {
	r := Report{ID: "figure1", Title: "Mapped node scatter (skitter, ixmapper)"}
	ds := p.Dataset("skitter", "ixmapper")
	for _, reg := range geo.AnalysisRegions() {
		sub := ds.InRegion(reg)
		s := Series{Name: reg.Name}
		step := len(sub.Nodes)/2000 + 1
		for i := 0; i < len(sub.Nodes); i += step {
			s.X = append(s.X, sub.Nodes[i].Loc.Lon)
			s.Y = append(s.Y, sub.Nodes[i].Loc.Lat)
		}
		r.Series = append(r.Series, s)
		r.AddNote("%s: %d mapped nodes", reg.Name, len(sub.Nodes))
	}
	return r
}

func expFigure2(p *Pipeline) Report {
	r := Report{ID: "figure2", Title: "Node density vs population density (75' patches)"}
	t := Table{Header: []string{"Dataset", "Region", "Slope(alpha)", "Intercept", "R2", "Patches"}}
	for _, dsName := range bothDatasets() {
		ds := p.Dataset(dsName, "ixmapper")
		for _, reg := range geo.AnalysisRegions() {
			res := analysis.PatchDensity(ds, p.World.Raster, reg, 75)
			t.Rows = append(t.Rows, []string{
				dsName, reg.Name, f(res.Fit.Slope), f(res.Fit.Intercept),
				f(res.Fit.R2), d(res.Fit.N)})
			r.Series = append(r.Series, Series{
				Name: fmt.Sprintf("%s-%s", dsName, reg.Name),
				X:    res.LogPop, Y: res.LogCount,
			})
		}
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("paper slopes: 1.20/1.56/1.75 (mercator US/EU/JP), 1.26/1.60/1.71 (skitter); superlinear (>1) is the claim")
	return r
}

func expFigure3(p *Pipeline) Report {
	r := Report{ID: "figure3", Title: "Homogeneity test regions"}
	t := Table{Header: []string{"Name", "North", "South", "West", "East"}}
	ds := p.Dataset("skitter", "ixmapper")
	for _, reg := range geo.HomogeneityRegions() {
		t.Rows = append(t.Rows, []string{
			reg.Name, f(reg.North), f(reg.South), f0(reg.West), f0(reg.East)})
		sub := ds.InRegion(reg)
		s := Series{Name: reg.Name}
		step := len(sub.Nodes)/1000 + 1
		for i := 0; i < len(sub.Nodes); i += step {
			s.X = append(s.X, sub.Nodes[i].Loc.Lon)
			s.Y = append(s.Y, sub.Nodes[i].Loc.Lat)
		}
		r.Series = append(r.Series, s)
	}
	r.Tables = append(r.Tables, t)
	return r
}

func expFigure4(p *Pipeline) Report {
	r := Report{ID: "figure4", Title: "Empirical distance preference function f(d)"}
	for _, dsName := range bothDatasets() {
		ds := p.Dataset(dsName, "ixmapper")
		for _, prm := range sectionVParams() {
			dp := analysis.DistancePreference(ds, prm.region, prm.binMiles, 100)
			s := Series{Name: fmt.Sprintf("%s-%s", dsName, prm.region.Name)}
			for i := range dp.D {
				if dp.PairCount[i] > 0 {
					s.X = append(s.X, dp.D[i])
					s.Y = append(s.Y, dp.F[i])
				}
			}
			r.Series = append(r.Series, s)
		}
	}
	r.AddNote("bin sizes: US 35 mi, Europe 15 mi, Japan 11 mi (paper Figure 4)")
	return r
}

func expFigure5(p *Pipeline) Report {
	r := Report{ID: "figure5", Title: "Small-d semi-log fits of f(d)"}
	t := Table{Header: []string{"Dataset", "Region", "Slope", "Intercept", "DecayMiles", "R2"}}
	for _, dsName := range bothDatasets() {
		ds := p.Dataset(dsName, "ixmapper")
		for _, prm := range sectionVParams() {
			dp := analysis.DistancePreference(ds, prm.region, prm.binMiles, 100)
			fit := dp.FitSmallD(prm.smallDCutoff)
			t.Rows = append(t.Rows, []string{
				dsName, prm.region.Name,
				fmt.Sprintf("%.5f", fit.Fit.Slope), f(fit.Fit.Intercept),
				f0(fit.DecayMiles), f(fit.Fit.R2)})
			r.Series = append(r.Series, Series{
				Name: fmt.Sprintf("%s-%s", dsName, prm.region.Name),
				X:    fit.D, Y: fit.LnF,
			})
		}
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("paper slopes: US -0.0069/-0.0071, Europe -0.0128/-0.0123, Japan -0.0069/-0.0088")
	r.AddNote("paper reads these as Waxman decay lengths L*alpha ~ 140 mi (US/Japan), 80 mi (Europe)")
	return r
}

func expFigure6(p *Pipeline) Report {
	r := Report{ID: "figure6", Title: "Cumulated distance preference F(d), large d"}
	t := Table{Header: []string{"Dataset", "Region", "LinearR2", "MeanLargeF"}}
	for _, dsName := range bothDatasets() {
		ds := p.Dataset(dsName, "ixmapper")
		for _, prm := range sectionVParams() {
			dp := analysis.DistancePreference(ds, prm.region, prm.binMiles, 100)
			res := dp.CumulateLargeD(prm.largeDMin)
			t.Rows = append(t.Rows, []string{
				dsName, prm.region.Name, f(res.LinearFit.R2),
				fmt.Sprintf("%.3g", res.MeanF)})
			r.Series = append(r.Series, Series{
				Name: fmt.Sprintf("%s-%s", dsName, prm.region.Name),
				X:    res.D, Y: res.F,
			})
		}
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("linear F(d) at large d means f(d) is distance-independent there (paper Figure 6)")
	return r
}

func expTable5(p *Pipeline) Report {
	r := Report{ID: "table5", Title: "Limits of distance sensitivity"}
	t := Table{Header: []string{"Dataset", "Region", "Limit(mi)", "%Links<Limit"}}
	for _, dsName := range bothDatasets() {
		ds := p.Dataset(dsName, "ixmapper")
		for _, prm := range sectionVParams() {
			dp := analysis.DistancePreference(ds, prm.region, prm.binMiles, 100)
			lim := dp.FindSensitivityLimit(prm.smallDCutoff, prm.largeDMin)
			t.Rows = append(t.Rows, []string{
				dsName, prm.region.Name, f0(lim.LimitMiles),
				fmt.Sprintf("%.1f%%", lim.FracBelow*100)})
		}
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("paper: US 820/818 mi (82.1%%/77.2%%), Europe 383/366 (97.3%%/95.4%%), Japan 165/116 (91.5%%/92.8%%)")
	return r
}

func expFigure7(p *Pipeline) Report {
	r := Report{ID: "figure7", Title: "CCDFs of AS size measures (skitter, ixmapper)"}
	st := analysis.ASSizes(p.Dataset("skitter", "ixmapper").ASAggregate())
	add := func(name string, ccdf []analysis.CCDFPoint) {
		s := Series{Name: name}
		for _, pt := range ccdf {
			if pt.P > 0 && pt.X > 0 {
				s.X = append(s.X, math.Log10(pt.X))
				s.Y = append(s.Y, math.Log10(pt.P))
			}
		}
		r.Series = append(r.Series, s)
	}
	add("interfaces", st.InterfacesCCDF)
	add("locations", st.LocationsCCDF)
	add("degree", st.DegreesCCDF)
	r.AddNote("tail indexes: interfaces %.2f, locations %.2f, degree %.2f (all long-tailed)",
		analysis.TailIndex(st.InterfacesCCDF, 5).Slope,
		analysis.TailIndex(st.LocationsCCDF, 3).Slope,
		analysis.TailIndex(st.DegreesCCDF, 3).Slope)
	return r
}

func expFigure8(p *Pipeline) Report {
	r := Report{ID: "figure8", Title: "Pairwise AS size scatterplots (skitter, ixmapper)"}
	st := analysis.ASSizes(p.Dataset("skitter", "ixmapper").ASAggregate())
	scatter := func(name string, x, y []float64) {
		s := Series{Name: name}
		for i := range x {
			if x[i] > 0 && y[i] > 0 {
				s.X = append(s.X, math.Log10(x[i]))
				s.Y = append(s.Y, math.Log10(y[i]))
			}
		}
		r.Series = append(r.Series, s)
	}
	scatter("interfaces-locations", st.Interfaces, st.Locations)
	scatter("interfaces-degree", st.Interfaces, st.Degrees)
	scatter("locations-degree", st.Locations, st.Degrees)
	t := Table{Header: []string{"Pair", "Pearson(log)", "Spearman"}}
	t.Rows = append(t.Rows,
		[]string{"interfaces-locations", f(st.CorrIfaceLoc), f(st.SpearIfaceLoc)},
		[]string{"interfaces-degree", f(st.CorrIfaceDeg), f(st.SpearIfaceDeg)},
		[]string{"locations-degree", f(st.CorrLocDeg), f(st.SpearLocDeg)})
	r.Tables = append(r.Tables, t)
	r.AddNote("paper: interfaces-locations is the tightest; locations-degree at least as strong as interfaces-degree")
	return r
}

func expFigure9(p *Pipeline) Report {
	r := Report{ID: "figure9", Title: "CDFs of AS convex hull areas"}
	infos := p.Dataset("skitter", "ixmapper").ASAggregate()
	t := Table{Header: []string{"Scope", "ASes", "ZeroAreaFrac", "MaxArea(sqmi)"}}
	add := func(name string, st analysis.HullStats) {
		s := Series{Name: name}
		for _, pt := range st.AreaCDF {
			s.X = append(s.X, pt.X)
			s.Y = append(s.Y, pt.P)
		}
		r.Series = append(r.Series, s)
		max := 0.0
		for _, a := range st.Areas {
			if a > max {
				max = a
			}
		}
		t.Rows = append(t.Rows, []string{name, d(len(st.Areas)), f(st.ZeroFrac),
			fmt.Sprintf("%.3g", max)})
	}
	add("World", analysis.Hulls(infos, geo.WorldAlbers(), geo.World))
	add("US", analysis.Hulls(infos, geo.RegionAlbers(geo.US), geo.US))
	add("Europe", analysis.Hulls(infos, geo.RegionAlbers(geo.Europe), geo.Europe))
	r.Tables = append(r.Tables, t)
	r.AddNote("paper: ~80%% of ASes have one or two locations and thus zero area")
	return r
}

func expFigure10(p *Pipeline) Report {
	r := Report{ID: "figure10", Title: "AS size measures vs convex hull area"}
	ds := p.Dataset("skitter", "ixmapper")
	infos := ds.ASAggregate()
	hulls := analysis.Hulls(infos, geo.WorldAlbers(), geo.World)
	// Hulls preserves AS order for non-empty ASes; align by ASN.
	areaByASN := map[int]float64{}
	for i, asn := range hulls.ASNs {
		areaByASN[asn] = hulls.Areas[i]
	}
	var deg, iface, loc, area []float64
	for _, info := range infos {
		a, ok := areaByASN[info.ASN]
		if !ok {
			continue
		}
		deg = append(deg, float64(info.Degree))
		iface = append(iface, float64(info.Interfaces))
		loc = append(loc, float64(info.Locations))
		area = append(area, a)
	}
	t := Table{Header: []string{"SizeMeasure", "SaturationThreshold", "SmallSpread(p90/p10)", "SmallWorldwide"}}
	for _, m := range []struct {
		name string
		size []float64
	}{{"degree", deg}, {"interfaces", iface}, {"locations", loc}} {
		reg := analysis.FindDispersalRegimes(m.size, area, 0.5)
		t.Rows = append(t.Rows, []string{
			m.name, f0(reg.Threshold), f0(reg.SmallSpreadRatio),
			fmt.Sprintf("%v", reg.SmallWorldwide)})
		s := Series{Name: m.name + "-vs-hull"}
		for i := range m.size {
			if m.size[i] > 0 && area[i] > 0 {
				s.X = append(s.X, math.Log10(m.size[i]))
				s.Y = append(s.Y, math.Log10(area[i]))
			}
		}
		r.Series = append(r.Series, s)
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("paper thresholds: degree ~100, interfaces ~1000, locations ~100 (scale with world size)")
	return r
}

func expTable6(p *Pipeline) Report {
	r := Report{ID: "table6", Title: "Intradomain vs interdomain links (skitter, ixmapper)"}
	ds := p.Dataset("skitter", "ixmapper")
	t := Table{Header: []string{"Region", "InterCount", "InterMean(mi)", "IntraCount", "IntraMean(mi)", "IntraShare"}}
	regions := []geo.Region{geo.World, geo.US, geo.Europe, geo.Japan}
	for _, reg := range regions {
		inter, intra := ds.DomainLinkStats(reg)
		share := 0.0
		if inter.Count+intra.Count > 0 {
			share = float64(intra.Count) / float64(inter.Count+intra.Count)
		}
		t.Rows = append(t.Rows, []string{
			reg.Name, d(inter.Count), f0(inter.MeanLength),
			d(intra.Count), f0(intra.MeanLength),
			fmt.Sprintf("%.1f%%", share*100)})
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("paper: intradomain >=83%% of links and roughly half the length of interdomain")
	return r
}

func expAppendix(p *Pipeline) Report {
	r := Report{ID: "appendix", Title: "EdgeScape replication (Figures 11-17)"}
	// Figure 11: density fits.
	t := Table{Header: []string{"Panel", "Dataset", "Region", "Value"}}
	for _, dsName := range bothDatasets() {
		ds := p.Dataset(dsName, "edgescape")
		for _, reg := range geo.AnalysisRegions() {
			res := analysis.PatchDensity(ds, p.World.Raster, reg, 75)
			t.Rows = append(t.Rows, []string{"fig11-density-slope", dsName, reg.Name, f(res.Fit.Slope)})
		}
		for _, prm := range sectionVParams() {
			dp := analysis.DistancePreference(ds, prm.region, prm.binMiles, 100)
			fit := dp.FitSmallD(prm.smallDCutoff)
			t.Rows = append(t.Rows, []string{"fig13-smalld-slope", dsName, prm.region.Name,
				fmt.Sprintf("%.5f", fit.Fit.Slope)})
			lim := dp.FindSensitivityLimit(prm.smallDCutoff, prm.largeDMin)
			t.Rows = append(t.Rows, []string{"fig14-limit-miles", dsName, prm.region.Name, f0(lim.LimitMiles)})
		}
	}
	st := analysis.ASSizes(p.Dataset("skitter", "edgescape").ASAggregate())
	t.Rows = append(t.Rows,
		[]string{"fig16-corr-iface-loc", "skitter", "World", f(st.CorrIfaceLoc)},
		[]string{"fig16-corr-iface-deg", "skitter", "World", f(st.CorrIfaceDeg)},
		[]string{"fig16-corr-loc-deg", "skitter", "World", f(st.CorrLocDeg)})
	hull := analysis.Hulls(p.Dataset("skitter", "edgescape").ASAggregate(), geo.WorldAlbers(), geo.World)
	t.Rows = append(t.Rows, []string{"fig17-zero-area-frac", "skitter", "World", f(hull.ZeroFrac)})
	r.Tables = append(r.Tables, t)
	r.AddNote("the paper's appendix repeats Figures 2-10 with EdgeScape; conclusions must match IxMapper's")
	return r
}

func expFractal(p *Pipeline) Report {
	r := Report{ID: "fractal", Title: "Box-counting fractal dimension (Section II cross-check)"}
	ds := p.Dataset("skitter", "ixmapper")
	t := Table{Header: []string{"Region", "Dimension", "Scales"}}
	for _, reg := range []geo.Region{geo.US, geo.Europe} {
		res := geo.BoxCountDimension(ds.InRegion(reg).Points(), reg, 7)
		t.Rows = append(t.Rows, []string{reg.Name, f(res.Dimension), d(len(res.Occupied))})
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("Yook/Jeong/Barabasi (and the paper's own cross-check) report ~1.5")
	return r
}
