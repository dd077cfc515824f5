package topo

import (
	"testing"

	"geonet/internal/bgp"
	"geonet/internal/dnsdb"
	"geonet/internal/geo"
	"geonet/internal/geoloc"
	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/population"
	"geonet/internal/probe/mercator"
	"geonet/internal/probe/skitter"
	"geonet/internal/rng"
	"geonet/internal/whois"
)

type fixture struct {
	in    *netgen.Internet
	ix    geoloc.Mapper
	table *bgp.Table
	sk    *Dataset
	mc    *Dataset
}

var shared *fixture

func setup(tb testing.TB) *fixture {
	tb.Helper()
	if shared != nil {
		return shared
	}
	world := population.Build(rng.New(1))
	cfg := netgen.DefaultConfig()
	cfg.Scale = 0.02
	in := netgen.Build(cfg, world)
	net := netsim.Compile(in)
	dns, err := dnsdb.FromInternet(in)
	if err != nil {
		tb.Fatal(err)
	}
	res := geoloc.Resources{DNS: dns, Whois: whois.FromInternet(in), Dict: world.CodeDictionary()}
	ix := geoloc.NewIxMapper(res)
	table := bgp.Assemble(in, 0.02, rng.New(2))

	raw := skitter.Collect(net, rng.New(3))
	merc := mercator.Collect(net, rng.New(4))

	shared = &fixture{
		in:    in,
		ix:    ix,
		table: table,
		sk:    FromSkitter(raw, ix, table),
		mc:    FromMercator(merc, ix, table),
	}
	return shared
}

func TestSkitterDatasetShape(t *testing.T) {
	f := setup(t)
	d := f.sk
	if d.Granularity != Interfaces {
		t.Error("skitter dataset should be interface-granularity")
	}
	if len(d.Nodes) == 0 || len(d.Links) == 0 {
		t.Fatalf("empty dataset: %d nodes, %d links", len(d.Nodes), len(d.Links))
	}
	// Destination-list discard must bite (paper: 18%).
	if d.Stats.DiscardedDest == 0 {
		t.Error("no destination-list interfaces discarded")
	}
	destFrac := float64(d.Stats.DiscardedDest) / float64(d.Stats.RawNodes)
	if destFrac < 0.02 || destFrac > 0.5 {
		t.Errorf("destination discard = %.1f%%, want a notable minority", destFrac*100)
	}
	// Unmapped discard should be small (paper: ~1.5%).
	unFrac := float64(d.Stats.DiscardedUnmapped) / float64(d.Stats.RawNodes)
	if unFrac > 0.05 {
		t.Errorf("unmapped discard = %.1f%%, want < 5%%", unFrac*100)
	}
}

func TestMercatorDatasetShape(t *testing.T) {
	f := setup(t)
	d := f.mc
	if d.Granularity != Routers {
		t.Error("mercator dataset should be router-granularity")
	}
	if len(d.Nodes) == 0 || len(d.Links) == 0 {
		t.Fatal("empty dataset")
	}
	// Tie discards exist but are small (paper: 2.5-2.9%).
	tieFrac := float64(d.Stats.DiscardedTies) / float64(len(d.Nodes)+d.Stats.DiscardedTies)
	if tieFrac > 0.10 {
		t.Errorf("tie discard = %.1f%%, want < 10%%", tieFrac*100)
	}
}

func TestNodeLocationsValid(t *testing.T) {
	f := setup(t)
	for _, d := range []*Dataset{f.sk, f.mc} {
		for _, n := range d.Nodes {
			if !n.Loc.Valid() {
				t.Fatalf("%s: node %d has invalid location", d.Name, n.IP)
			}
		}
	}
}

func TestLinkLengthsMatchNodeDistance(t *testing.T) {
	f := setup(t)
	for _, d := range []*Dataset{f.sk, f.mc} {
		for _, l := range d.Links[:min(500, len(d.Links))] {
			want := geo.DistanceMiles(d.Nodes[l.A].Loc, d.Nodes[l.B].Loc)
			if l.LengthMi != want {
				t.Fatalf("%s: link length %f != %f", d.Name, l.LengthMi, want)
			}
		}
	}
}

func TestASLabelsMostlyCorrect(t *testing.T) {
	f := setup(t)
	correct, wrong, unmapped := 0, 0, 0
	for _, n := range f.sk.Nodes {
		ifid, ok := f.in.ByIP[n.IP]
		if !ok {
			continue
		}
		truth := f.in.ASes[f.in.Routers[f.in.Ifaces[ifid].Router].AS].Number
		switch {
		case n.ASN == 0:
			unmapped++
		case n.ASN == truth:
			correct++
		default:
			wrong++
		}
	}
	total := correct + wrong + unmapped
	if total == 0 {
		t.Fatal("no nodes checked")
	}
	if float64(correct)/float64(total) < 0.9 {
		t.Errorf("AS label accuracy = %d/%d", correct, total)
	}
	if unmapped == 0 {
		t.Error("expected some AS-unmapped nodes (BGP coverage gaps)")
	}
}

func TestInRegionSubsets(t *testing.T) {
	f := setup(t)
	us := f.sk.InRegion(geo.US)
	if len(us.Nodes) == 0 {
		t.Fatal("no US nodes")
	}
	if len(us.Nodes) >= len(f.sk.Nodes) {
		t.Error("US subset should be smaller than world")
	}
	for _, n := range us.Nodes {
		if !geo.US.Contains(n.Loc) {
			t.Fatal("US subset contains node outside region")
		}
	}
	for _, l := range us.Links {
		if int(l.A) >= len(us.Nodes) || int(l.B) >= len(us.Nodes) {
			t.Fatal("subset link indexes out of range")
		}
	}
	// US should dominate the dataset (~half of paper interfaces).
	frac := float64(len(us.Nodes)) / float64(len(f.sk.Nodes))
	if frac < 0.25 {
		t.Errorf("US node share = %.1f%%, want dominant", frac*100)
	}
}

func TestNumLocations(t *testing.T) {
	f := setup(t)
	n := f.sk.NumLocations()
	if n <= 0 || n > len(f.sk.Nodes) {
		t.Fatalf("NumLocations = %d", n)
	}
	// Many nodes share city locations, so locations << nodes.
	if float64(n) > 0.7*float64(len(f.sk.Nodes)) {
		t.Errorf("locations (%d) suspiciously close to nodes (%d)", n, len(f.sk.Nodes))
	}
}

func TestASAggregate(t *testing.T) {
	f := setup(t)
	infos := f.sk.ASAggregate()
	if len(infos) < 50 {
		t.Fatalf("only %d ASes in aggregate", len(infos))
	}
	totalNodes := 0
	for _, info := range infos {
		if info.ASN == 0 {
			t.Fatal("sentinel AS 0 must be omitted")
		}
		if info.Interfaces <= 0 || info.Locations <= 0 {
			t.Fatalf("AS %d has empty aggregate", info.ASN)
		}
		if info.Locations > info.Interfaces {
			t.Fatalf("AS %d: locations %d > interfaces %d", info.ASN, info.Locations, info.Interfaces)
		}
		if len(info.Points) != info.Interfaces {
			t.Fatalf("AS %d: points/interfaces mismatch", info.ASN)
		}
		totalNodes += info.Interfaces
	}
	if totalNodes == 0 {
		t.Fatal("aggregate covers no nodes")
	}
	// Degrees must be symmetric-ish: at least one AS with degree > 10
	// (a backbone) and many with low degree.
	maxDeg := 0
	for _, info := range infos {
		if info.Degree > maxDeg {
			maxDeg = info.Degree
		}
	}
	if maxDeg < 10 {
		t.Errorf("max AS degree = %d, want a well-connected backbone", maxDeg)
	}
}

func TestDomainLinkStats(t *testing.T) {
	f := setup(t)
	inter, intra := f.sk.DomainLinkStats(geo.World)
	if inter.Count == 0 || intra.Count == 0 {
		t.Fatal("missing link class")
	}
	// Paper: >83% intradomain, interdomain about twice as long.
	frac := float64(intra.Count) / float64(intra.Count+inter.Count)
	if frac < 0.6 {
		t.Errorf("intradomain share = %.1f%%, want clear majority", frac*100)
	}
	if inter.MeanLength < intra.MeanLength {
		t.Errorf("interdomain mean (%f) should exceed intradomain (%f)",
			inter.MeanLength, intra.MeanLength)
	}
}

func TestDeterministicProcessing(t *testing.T) {
	f := setup(t)
	d2 := FromSkitter(reconstructRaw(f), f.ix, f.table)
	if len(d2.Nodes) != len(f.sk.Nodes) || len(d2.Links) != len(f.sk.Links) {
		t.Error("reprocessing produced different dataset")
	}
	for i := range d2.Nodes {
		if d2.Nodes[i] != f.sk.Nodes[i] {
			t.Fatal("node order not deterministic")
		}
	}
}

// reconstructRaw rebuilds the raw graph the fixture processed, to test
// determinism of processing alone.
var rawCache *skitter.RawGraph

func reconstructRaw(f *fixture) *skitter.RawGraph {
	if rawCache == nil {
		net := netsim.Compile(f.in)
		rawCache = skitter.Collect(net, rng.New(3))
	}
	return rawCache
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
