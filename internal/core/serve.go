package core

import (
	"geonet/internal/analysis"
	"geonet/internal/churn"
	"geonet/internal/geoserve"
)

// ServeOptions tunes how a finished pipeline compiles into a serving
// snapshot. The zero value matches Serve.
type ServeOptions struct {
	// Label names the build in /healthz and /statusz
	// ("seed1/scale0.02/..."); it is excluded from the snapshot digest.
	Label string
}

// Serve compiles the finished pipeline's geolocation knowledge into an
// immutable serving snapshot (internal/geoserve): a sorted /24
// interval index with precomputed answers for both mappers, AS
// attribution from the Skitter-era BGP epoch (the more recent of the
// two), and confidence radii from each mapper's per-AS footprints
// measured over its Skitter dataset (the larger collection). The
// snapshot's digest follows the same determinism discipline as Digest:
// byte-identical at any GOMAXPROCS.
func (p *Pipeline) Serve() (*geoserve.Snapshot, error) {
	return p.ServeWith(ServeOptions{})
}

// ServeWith is Serve with explicit options.
func (p *Pipeline) ServeWith(opts ServeOptions) (*geoserve.Snapshot, error) {
	return geoserve.Compile(p.ServeSource(opts))
}

// ServeSource assembles the geoserve.Source Serve compiles, without
// compiling it — the handle continuous-churn drivers (internal/churn)
// start from and the input both Compile and CompileDelta consume.
func (p *Pipeline) ServeSource(opts ServeOptions) geoserve.Source {
	return geoserve.Source{
		Internet: p.Internet,
		Table:    p.SkitterTable,
		Mappers: []geoserve.NamedMapper{
			{
				Mapper:     p.IxMapper,
				Footprints: analysis.Footprints(p.Dataset("skitter", "ixmapper").ASAggregate()),
			},
			{
				Mapper:     p.EdgeScape,
				Footprints: analysis.Footprints(p.Dataset("skitter", "edgescape").ASAggregate()),
			},
		},
		Build: geoserve.BuildInfo{
			Seed:  p.Config.Seed,
			Scale: p.Config.Scale,
			Label: opts.Label,
		},
	}
}

// Churner starts a deterministic churn-event stream over this
// pipeline's serving source; feed its steps to ServeDelta.
func (p *Pipeline) Churner(opts ServeOptions, seed int64) (*churn.Churner, error) {
	return churn.New(p.ServeSource(opts), seed)
}

// ServeDelta makes Serve resumable under churn: it incrementally
// recompiles prev for one churn step, recomputing only the /24
// intervals whose answers could have changed (the step's dirty routes
// and allocations, interface churn, footprint changes) and copying the
// rest. The result is byte-identical — same Digest — to a
// from-scratch compile of the step's source; the golden churn corpus
// pins that at every step.
func (p *Pipeline) ServeDelta(prev *geoserve.Snapshot, step churn.Step) (*geoserve.Snapshot, geoserve.DeltaStats, error) {
	return geoserve.CompileDelta(prev, step.Source, step.Dirty)
}
