// Package core is the reproduction pipeline: it builds the world,
// generates the ground-truth Internet, runs both collectors, both
// mapping tools and both BGP epochs, and processes the four
// dataset-mapper combinations of Table I. The experiment registry in
// experiments.go regenerates every table and figure of the paper from
// a Pipeline's results.
//
// The forwarding fabric (netsim.Network) lives only for the collection
// stage: nothing holds it once both collectors return.
//
// Config is the only input: a seed, a scale and optional generator
// ablations. The instruments are the paper's, so the world model, both
// collectors (skitter.Collect(net, s), mercator.Collect(net, s)) and
// EdgeScape's feed (geoloc.NewEdgeScape(res, in, s)) run on package
// constants; the one per-run value below the generator is each BGP
// epoch's missing-AS probability, bgp.Assemble's argument.
//
// Independent stages run concurrently: the per-AS intra-AS link
// draws of the generator, the two BGP epoch assemblies, the two
// collections (each internally parallel), and the four Table-I
// dataset-mapper combinations. GOMAXPROCS is the one bound on
// that fan-out and on the analysis kernels the experiments run. Every
// stochastic stage draws from its own named split of the root stream
// and every parallel reduction merges in a fixed order, so a (seed,
// scale) pair produces byte-identical reports at any GOMAXPROCS.
package core

import (
	"fmt"
	"io"

	"geonet/internal/bgp"
	"geonet/internal/dnsdb"
	"geonet/internal/geoloc"
	"geonet/internal/netgen"
	"geonet/internal/netsim"
	"geonet/internal/parallel"
	"geonet/internal/population"
	"geonet/internal/probe/mercator"
	"geonet/internal/probe/skitter"
	"geonet/internal/rng"
	"geonet/internal/topo"
	"geonet/internal/whois"
)

// Config selects the world size and seed. The zero value is not
// valid: Scale must be finite and positive (see Validate).
type Config struct {
	Seed  int64
	Scale float64
	// Progress, when non-nil, receives stage announcements.
	Progress io.Writer
	// Gen overrides the netgen configuration (ablations); nil uses the
	// default at the configured scale.
	Gen *netgen.Config
}

// TestConfig is a fast small-world configuration for tests.
func TestConfig() Config { return Config{Seed: 1, Scale: 0.02} }

// Combo names one dataset-mapper combination (a row of Table I).
type Combo struct {
	Dataset string // "mercator" or "skitter"
	Mapper  string // "ixmapper" or "edgescape"
}

// Pipeline holds every artefact of a reproduction run except the
// forwarding fabric, which lives only while the collectors run.
type Pipeline struct {
	Config   Config
	World    *population.World
	Internet *netgen.Internet

	DNS       *dnsdb.DB
	Whois     *whois.Registry
	IxMapper  *geoloc.IxMapper
	EdgeScape *geoloc.EdgeScape

	// SkitterTable and MercatorTable are the two RouteViews epochs
	// (January 2002 and August 1999 in the paper).
	SkitterTable  *bgp.Table
	MercatorTable *bgp.Table

	RawSkitter  *skitter.RawGraph
	RawMercator *mercator.Result

	Datasets map[Combo]*topo.Dataset
}

// TableICombos lists the four dataset-mapper combinations in the
// paper's Table I order.
func TableICombos() []Combo {
	return []Combo{
		{"skitter", "ixmapper"}, {"mercator", "ixmapper"},
		{"skitter", "edgescape"}, {"mercator", "edgescape"},
	}
}

// generator is the netgen configuration Run builds the Internet from:
// the Gen override or the default, at cfg's scale, validated.
func (cfg Config) generator() (netgen.Config, error) {
	g := netgen.DefaultConfig()
	if cfg.Gen != nil {
		g = *cfg.Gen
	}
	g.Scale = cfg.Scale
	if err := g.Validate(); err != nil {
		return g, fmt.Errorf("core: generator config: %w", err)
	}
	return g, nil
}

// Validate returns the error Run would return for cfg before it builds
// anything: netgen.Config.Validate's verdict on the generator
// configuration, so a scale that is not finite and positive fails.
func (cfg Config) Validate() error {
	_, err := cfg.generator()
	return err
}

// Run executes the full pipeline. It returns Validate's error, before
// building anything, for a Config Validate refuses.
func Run(cfg Config) (*Pipeline, error) {
	gcfg, err := cfg.generator()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Config: cfg, Datasets: map[Combo]*topo.Dataset{}}
	say := func(format string, args ...interface{}) {
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, format+"\n", args...)
		}
	}
	root := rng.New(cfg.Seed)

	say("building world population model")
	p.World = population.Build(root.Split("world"))
	say("  %d places, %.0fM people", len(p.World.Places), p.World.Raster.Total()/1e6)

	say("generating ground-truth internet (scale %.3f)", cfg.Scale)
	gcfg.Seed = root.Split("netgen").Seed()
	p.Internet = netgen.Build(gcfg, p.World)
	inter := 0
	for _, l := range p.Internet.Links {
		if l.Inter {
			inter++
		}
	}
	say("  %d ASes, %d routers, %d interfaces, %d links (%d interdomain)",
		len(p.Internet.ASes), len(p.Internet.Routers),
		len(p.Internet.Ifaces), len(p.Internet.Links), inter)

	say("compiling forwarding fabric")
	fabric := netsim.Compile(p.Internet)

	say("publishing DNS, whois and ISP geography")
	var dnsErr error
	parallel.Do(
		func() { p.DNS, dnsErr = dnsdb.FromInternet(p.Internet) },
		func() { p.Whois = whois.FromInternet(p.Internet) },
	)
	if dnsErr != nil {
		return nil, fmt.Errorf("core: dns: %w", dnsErr)
	}
	res := geoloc.Resources{DNS: p.DNS, Whois: p.Whois, Dict: p.World.CodeDictionary()}
	p.IxMapper = geoloc.NewIxMapper(res)
	p.EdgeScape = geoloc.NewEdgeScape(res, p.Internet, root.Split("edgescape"))

	say("assembling RouteViews tables (two epochs)")
	// An epoch's missing-AS probability sets its unmapped share.
	parallel.Do(
		func() { p.SkitterTable = bgp.Assemble(p.Internet, 0.02, root.Split("bgp-2002")) },   // Jan 2002: 1.5% unmapped
		func() { p.MercatorTable = bgp.Assemble(p.Internet, 0.035, root.Split("bgp-1999")) }, // Aug 1999: 2.8% unmapped
	)

	say("running skitter (19 monitors) and mercator collections")
	parallel.Do(
		func() { p.RawSkitter = skitter.Collect(fabric, root.Split("skitter")) },
		func() { p.RawMercator = mercator.Collect(fabric, root.Split("mercator")) },
	)
	sk, mc := p.RawSkitter, p.RawMercator
	say("  skitter: %d monitors, %d traces (%d failed), %d interfaces, %d links, %d destinations",
		sk.Stats.Monitors, sk.Stats.Traces, sk.Stats.TracesFailed,
		len(sk.Nodes), len(sk.Links), len(sk.DestIPs))
	say("  mercator: %d traces (%d source-routed), %d alias probes, %d aliases resolved",
		mc.Stats.Traces, mc.Stats.LSRTraces, mc.Stats.AliasProbes, mc.Stats.AliasResolved)
	say("  mercator: %d interfaces -> %d routers (%.1f%% collapse; paper: 268,382 -> 228,263 = 15%%)",
		len(mc.IfaceNodes), len(mc.RouterNodes),
		100*(1-float64(len(mc.RouterNodes))/float64(len(mc.IfaceNodes))))

	say("processing datasets (Table I pipeline)")
	combos := TableICombos()
	mappers := map[string]geoloc.Mapper{
		p.IxMapper.Name():  p.IxMapper,
		p.EdgeScape.Name(): p.EdgeScape,
	}
	built := parallel.Map(len(combos), func(i int) *topo.Dataset {
		c := combos[i]
		if c.Dataset == "skitter" {
			return topo.FromSkitter(p.RawSkitter, mappers[c.Mapper], p.SkitterTable)
		}
		return topo.FromMercator(p.RawMercator, mappers[c.Mapper], p.MercatorTable)
	})
	for i, c := range combos {
		p.Datasets[c] = built[i]
		say("  %s/%s: %d nodes, %d links, %d locations",
			c.Mapper, c.Dataset, len(built[i].Nodes), len(built[i].Links),
			built[i].NumLocations())
	}
	return p, nil
}

// Dataset fetches one processed combination; it panics on an unknown
// combo (a programming error, not an input error).
func (p *Pipeline) Dataset(dataset, mapper string) *topo.Dataset {
	d, ok := p.Datasets[Combo{dataset, mapper}]
	if !ok {
		panic(fmt.Sprintf("core: no dataset %s/%s", dataset, mapper))
	}
	return d
}
