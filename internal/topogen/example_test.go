package topogen_test

import (
	"fmt"
	"maps"
	"slices"

	"geonet/internal/analysis"
	"geonet/internal/geo"
	"geonet/internal/population"
	"geonet/internal/rng"
	"geonet/internal/topogen"
)

// Section VI's application: topology generators need AS labels "to
// assign IP addresses to [routers] in a realistic manner". GeoGen's
// labels have the measured properties — an AS's location count tracks
// its size (Figure 8(a)), and intradomain links dominate and are short
// (Table VI).
func ExampleGeoGen_asLabels() {
	s := rng.New(7)
	world := population.Build(s.Split("world"))
	cfg := topogen.DefaultGeoGenConfig()
	cfg.Nodes = 3000
	cfg.ASCount = 80
	g := topogen.GeoGen(cfg, world, geo.US, s.Split("gen"))

	pts := map[int][]geo.Point{}
	for _, n := range g.Nodes {
		pts[n.ASN] = append(pts[n.ASN], n.Loc)
	}
	var size, locs []float64
	for _, asn := range slices.Sorted(maps.Keys(pts)) {
		size = append(size, float64(len(pts[asn])))
		locs = append(locs, float64(geo.DistinctLocations(pts[asn])))
	}
	fmt.Printf("%d ASes over %d routers; routers-locations rank correlation %.2f\n",
		len(size), len(g.Nodes), analysis.Spearman(size, locs))

	var count [2]int
	var miles [2]float64
	for _, l := range g.Links {
		i := 0 // intradomain
		if g.Nodes[l.A].ASN != g.Nodes[l.B].ASN {
			i = 1
		}
		count[i]++
		miles[i] += l.LengthMi
	}
	fmt.Printf("intradomain: %d links, mean %.0f mi\n", count[0], miles[0]/float64(count[0]))
	fmt.Printf("interdomain: %d links, mean %.0f mi\n", count[1], miles[1]/float64(count[1]))
	// Output:
	// 80 ASes over 3000 routers; routers-locations rank correlation 0.47
	// intradomain: 3928 links, mean 403 mi
	// interdomain: 572 links, mean 645 mi
}

// The paper's motivating application (Sections I and VII): once nodes
// have coordinates, labelling links with latency "is a straightforward
// matter". A geography-driven topology's latencies are mostly short
// metro links with a long-haul tail; a degree-driven Barabási–Albert
// topology's are whatever random placement yields.
func ExampleGeoGen_latency() {
	s := rng.New(42)
	world := population.Build(s.Split("world"))
	cfg := topogen.DefaultGeoGenConfig()
	cfg.Nodes = 2000
	gg := topogen.GeoGen(cfg, world, geo.US, s.Split("geogen"))
	ba := topogen.BarabasiAlbert(2000, 2, geo.US, s.Split("ba"))

	for _, g := range []*topogen.Graph{gg, ba} {
		fmt.Printf("%-16s link latency ms: median %.2f, p90 %.2f, max %.2f\n", g.Name,
			analysis.Quantile(g.LatencyMs, 0.5), analysis.Quantile(g.LatencyMs, 0.9), analysis.Quantile(g.LatencyMs, 1))
	}
	// Output:
	// geogen           link latency ms: median 1.64, p90 11.71, max 22.13
	// barabasi-albert  link latency ms: median 14.30, p90 30.43, max 46.20
}
