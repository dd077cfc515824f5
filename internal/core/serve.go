package core

import (
	"fmt"
	"maps"
	"slices"

	"geonet/internal/analysis"
	"geonet/internal/churn"
	"geonet/internal/geoserve"
	"geonet/internal/netgen"
)

// ServeOptions tunes how a finished pipeline compiles into a serving
// snapshot. The zero value matches Serve.
type ServeOptions struct {
	// Label names the build in /healthz and /statusz
	// ("seed1/scale0.02/..."); it is excluded from the snapshot digest.
	Label string
}

// Serve compiles the finished pipeline's geolocation knowledge into an
// immutable serving snapshot (internal/geoserve): the allocated /24s
// and interface addresses with precomputed answers for both mappers, AS
// attribution from the Skitter-era BGP epoch (the more recent of the
// two), and confidence radii from each mapper's per-AS footprints
// measured over its Skitter dataset (the larger collection). The
// snapshot's digest follows the same determinism discipline as Digest:
// byte-identical at any GOMAXPROCS.
func (p *Pipeline) Serve() (*geoserve.Snapshot, error) {
	src, err := p.ServeSource(ServeOptions{})
	if err != nil {
		return nil, err
	}
	return geoserve.Compile(src)
}

// ServeSource assembles the geoserve.Source Serve compiles, without
// compiling it — the handle continuous-churn drivers (internal/churn)
// start from and the input both Compile and CompileDelta consume.
func (p *Pipeline) ServeSource(opts ServeOptions) (geoserve.Source, error) {
	prefixes, ips, err := serveAddrs(p.Internet)
	if err != nil {
		return geoserve.Source{}, err
	}
	return geoserve.Source{
		Prefixes: prefixes,
		IPs:      ips,
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
	}, nil
}

// serveAddrs computes the two address sets a geoserve.Source carries:
// every allocated /24 base and every public interface address, each
// strictly ascending. The served answers need IPs to be, inside each
// allocated /24, exactly the addresses in.ByIP knows; the only
// addresses ByIP has beyond IPs are private ones, which netgen draws
// from 10/8, outside the space it allocates. serveAddrs checks that
// rather than relying on it.
func serveAddrs(in *netgen.Internet) (prefixes, ips []uint32, err error) {
	for ai := range in.ASes {
		for _, p := range in.ASes[ai].Prefixes {
			prefixes = slices.AppendSeq(prefixes, p.Blocks24())
		}
	}
	radixSort(prefixes)
	prefixes = slices.Compact(prefixes)

	ips = make([]uint32, 0, len(in.Ifaces))
	for i := range in.Ifaces {
		if ifc := &in.Ifaces[i]; ifc.IP != 0 && !ifc.Private {
			ips = append(ips, ifc.IP)
		}
	}
	radixSort(ips)
	ips = slices.Compact(ips)

	// Inside the allocated /24s, ByIP and ips must hold the same
	// addresses.
	known := slices.AppendSeq(make([]uint32, 0, len(in.ByIP)), maps.Keys(in.ByIP))
	radixSort(known)
	if !slices.Equal(inBlocks(known, prefixes), inBlocks(ips, prefixes)) {
		return nil, nil, fmt.Errorf("core: inside allocated space, ByIP holds addresses other than the public interface addresses")
	}
	return prefixes, ips, nil
}

// inBlocks returns the addresses of xs that fall in one of the /24s at
// bases; both are ascending.
func inBlocks(xs, bases []uint32) []uint32 {
	var out []uint32
	j := 0
	for _, x := range xs {
		for j < len(bases) && bases[j] < x&^0xff {
			j++
		}
		if j < len(bases) && bases[j] == x&^0xff {
			out = append(out, x)
		}
	}
	return out
}

// radixSort sorts xs ascending, exactly as slices.Sort does, in four
// LSD passes of one byte each (a pass whose byte is the same in every
// element is skipped): linear in len(xs), where a comparison sort of an
// epoch's tens of thousands of interface addresses costs milliseconds.
func radixSort(xs []uint32) {
	if slices.IsSorted(xs) { // the /24s usually arrive in order
		return
	}
	var counts [4][256]int
	for _, v := range xs {
		counts[0][v&0xff]++
		counts[1][v>>8&0xff]++
		counts[2][v>>16&0xff]++
		counts[3][v>>24]++
	}
	src, dst := xs, make([]uint32, len(xs))
	for pass := range counts {
		c, shift := &counts[pass], uint(8*pass)
		if c[src[0]>>shift&0xff] == len(xs) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, v := range src {
			b := v >> shift & 0xff
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// Churner starts a deterministic churn-event stream over this
// pipeline's serving source; feed its steps to ServeDelta.
func (p *Pipeline) Churner(opts ServeOptions, seed int64) (*churn.Churner, error) {
	src, err := p.ServeSource(opts)
	if err != nil {
		return nil, err
	}
	return churn.New(p.Internet, src, seed)
}

// ServeDelta makes Serve resumable under churn: it incrementally
// recompiles prev for one churn step, recomputing only the rows whose
// answers could have changed (the step's dirty routes and allocations,
// leaf groups whose interfaces changed, footprint changes) and sharing
// the rest. The result is byte-identical — same Digest — to a
// from-scratch compile of the step's source; the golden churn corpus
// pins that at every step.
func (p *Pipeline) ServeDelta(prev *geoserve.Snapshot, step churn.Step) (*geoserve.Snapshot, geoserve.DeltaStats, error) {
	return geoserve.CompileDelta(prev, step.Source, step.Dirty)
}
