package geonet

// One benchmark per table and figure of the paper, plus ablation
// benches for the design choices DESIGN.md calls out. The expensive
// part — building the world and running both collections — happens once
// per process in benchPipeline; each bench then measures regenerating
// its table or figure from the collected data, mirroring how the
// paper's analysis re-runs over fixed datasets.
//
// Run with:  go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/core"
	"geonet/internal/geo"
	"geonet/internal/geoserve"
	"geonet/internal/netgen"
	"geonet/internal/population"
	"geonet/internal/rng"
	"geonet/internal/topogen"
)

var (
	benchOnce sync.Once
	benchPipe *core.Pipeline
)

// benchScale sizes the shared pipeline the table/figure benches re-run
// their analyses over. The default 1.0 approximates the paper's
// 563k-interface Skitter snapshot (the scale BENCH_*.json snapshots are
// recorded at); `-short` drops to a laptop-friendly 0.05, and the
// GEONET_BENCH_SCALE environment variable overrides both.
func benchScale() float64 {
	if v := os.Getenv("GEONET_BENCH_SCALE"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			panic("bad GEONET_BENCH_SCALE: " + v)
		}
		return f
	}
	if testing.Short() {
		return 0.05
	}
	return 1.0
}

func pipeline(b *testing.B) *core.Pipeline {
	benchOnce.Do(func() {
		p, err := core.Run(core.Config{Seed: 1, Scale: benchScale()})
		if err != nil {
			panic(err)
		}
		benchPipe = p
	})
	return benchPipe
}

func benchExperiment(b *testing.B, id string) {
	p := pipeline(b)
	all := core.Experiments()
	k := slices.IndexFunc(all, func(e core.Experiment) bool { return e.ID == id })
	if k < 0 {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := all[k].Run(p)
		if len(rep.Tables) == 0 && len(rep.Series) == 0 {
			b.Fatalf("experiment %s produced nothing", id)
		}
	}
}

// ---- Tables ----

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTableV(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkTableVI(b *testing.B)  { benchExperiment(b, "table6") }

// ---- Figures ----

func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "figure1") }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "figure2") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "figure5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "figure7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }

// BenchmarkAppendixEdgeScape regenerates the appendix (Figures 11-17):
// the main results re-run with the EdgeScape mapper.
func BenchmarkAppendixEdgeScape(b *testing.B) { benchExperiment(b, "appendix") }

// BenchmarkFractalDimension regenerates the Section II cross-check
// (box-counting dimension ~1.5).
func BenchmarkFractalDimension(b *testing.B) { benchExperiment(b, "fractal") }

// ---- Pipeline stages (where the wall-clock goes) ----

// BenchmarkPipelineFull runs at the default GOMAXPROCS;
// BenchmarkPipelineFullSerial pins GOMAXPROCS to 1. Their ratio on a
// multi-core machine is the pipeline's parallel speedup — the outputs
// are byte-identical either way (see core.TestWorkersDeterminism).
func BenchmarkPipelineFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{Seed: 1, Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFullSerial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{Seed: 1, Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistancePreference isolates the O(n²) pairwise-distance
// kernel of Section V (the single hottest analysis loop) on the
// collected skitter dataset.
func BenchmarkDistancePreference(b *testing.B) {
	p := pipeline(b)
	ds := p.Dataset("skitter", "ixmapper")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp := analysis.DistancePreference(ds, geo.US, 35, 100)
		if len(dp.F) != 100 {
			b.Fatal("bad histogram")
		}
	}
}

func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		population.Build(rng.New(1))
	}
}

func BenchmarkNetgenBuild(b *testing.B) {
	world := population.Build(rng.New(1))
	cfg := netgen.DefaultConfig()
	cfg.Scale = 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netgen.Build(cfg, world)
	}
}

// ---- Ablations (DESIGN.md section 6) ----

// BenchmarkAblationUniformPlacement rebuilds the world with routers
// placed uniformly at random (the Waxman placement assumption the paper
// refutes) and re-measures the Figure 2 density slope; it should
// collapse toward zero, versus the superlinear slope of the default.
func BenchmarkAblationUniformPlacement(b *testing.B) {
	world := population.Build(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.New(9)
		g := topogen.Waxman(4000, geo.US, 0.05, 0.3, s)
		res := analysis.PatchDensity(g.Dataset, world.Raster, geo.US, 75)
		if res.Fit.Slope > 0.6 {
			b.Fatalf("uniform placement produced population-correlated density (slope %v)", res.Fit.Slope)
		}
	}
}

// BenchmarkAblationDistanceIndependentLinks generates link sets with and
// without the distance kernel and verifies the measured f(d) separates
// them (the Section V methodology check).
func BenchmarkAblationDistanceIndependentLinks(b *testing.B) {
	world := population.Build(rng.New(1))
	cfg := topogen.DefaultGeoGenConfig()
	cfg.Nodes = 1500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.New(11)
		geoG := topogen.GeoGen(cfg, world, geo.US, s.Split("geo"))
		er := topogen.ErdosRenyi(1500, geo.US, 0.002, s.Split("er"))
		dpG := analysis.DistancePreference(geoG.Dataset, geo.US, 35, 100)
		dpE := analysis.DistancePreference(er.Dataset, geo.US, 35, 100)
		fitG := dpG.FitSmallD(400)
		fitE := dpE.FitSmallD(400)
		if fitG.Fit.Slope >= 0 {
			b.Fatal("distance-kernel links show no decay")
		}
		if fitE.Fit.Slope < fitG.Fit.Slope/2 {
			b.Fatal("distance-free links decay like kernel links; estimator broken")
		}
	}
}

// TestAblationAliasResolution checks Mercator's dataset with alias
// resolution against without (interface granularity), the Table I
// interface-vs-router distinction.
func TestAblationAliasResolution(t *testing.T) {
	p, _, _ := serveFixture(t)
	res := p.RawMercator
	if withAlias, without := len(res.RouterNodes), len(res.IfaceNodes); withAlias >= without {
		t.Fatalf("alias resolution did not collapse interfaces: %d routers from %d interfaces", withAlias, without)
	}
}

// TestAblationHostnameOnlyMapping checks full-chain IxMapper coverage
// over the collected Skitter interfaces: the fallbacks behind hostname
// mapping must leave under a tenth unmapped.
func TestAblationHostnameOnlyMapping(t *testing.T) {
	p, _, _ := serveFixture(t)
	st := p.Dataset("skitter", "ixmapper").Stats
	if st.DiscardedUnmapped >= st.RawNodes/10 {
		t.Fatalf("full-chain mapper left %d of %d nodes unmapped, want <10%%", st.DiscardedUnmapped, st.RawNodes)
	}
}

// ---- Serving layer (internal/geoserve) ----

// What is left here is what no rung of the bench/ ladder measures: the
// miss path, the exact-address path and the JSON batch handler. Compile,
// delta compile, engine and cluster lookups, cluster batches and the
// binary handler are rungs there (bench/README.md) with their
// allocation pins in internal/geoserve/zeroalloc_test.go.
//
// The serve benches run over the test-scale (0.02) pipeline,
// independent of benchScale, so their numbers are comparable across
// snapshots regardless of the table/figure benches' scale.
var (
	serveOnce   sync.Once
	servePipe   *core.Pipeline
	serveEngine *geoserve.Cluster
	serveHits   []uint32
)

func serveFixture(tb testing.TB) (*core.Pipeline, *geoserve.Cluster, []uint32) {
	serveOnce.Do(func() {
		p, err := core.Run(core.TestConfig())
		if err != nil {
			panic(err)
		}
		snap, err := p.Serve()
		if err != nil {
			panic(err)
		}
		servePipe = p
		serveEngine = geoserve.NewEngine(snap)
		for i := range p.Internet.Ifaces {
			if ifc := &p.Internet.Ifaces[i]; ifc.IP != 0 && !ifc.Private {
				serveHits = append(serveHits, ifc.IP)
			}
		}
	})
	return servePipe, serveEngine, serveHits
}

// BenchmarkServeLookupMiss measures the miss path (addresses outside
// the allocated space), the floor a miss-heavy workload serves at.
func BenchmarkServeLookupMiss(b *testing.B) {
	_, e, _ := serveFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(0, 0xF0000000|uint32(i))
	}
}

// BenchmarkServeLookupExact measures the exact-address path: the
// directory's host-bitmap rank, then a row in the exact half of the
// slab. The pool is every public interface address, walked with a
// prime stride so consecutive lookups leave the /24 (and the cache
// lines) of the one before. No bench/ workload draws exact addresses
// for more than 2 % of its lookups.
func BenchmarkServeLookupExact(b *testing.B) {
	_, e, hits := serveFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := e.Lookup(0, hits[i*7919%len(hits)]); !a.Exact {
			b.Fatal("bad answer")
		}
	}
}

// nullResponseWriter sinks handler output so the handler bench measures
// serving cost, not recorder bookkeeping.
type nullResponseWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *nullResponseWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *nullResponseWriter) WriteHeader(code int) { w.code = code }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// BenchmarkJSONBatch is one 256-address batch through the JSON batch
// endpoint per iteration, amortised ns/lookup reported — the wall the
// binary endpoint (the ladder's wire_handler_ns) exists to knock down.
func BenchmarkJSONBatch(b *testing.B) {
	_, e, hits := serveFixture(b)
	h := geoserve.NewHandler(e)
	const batchSize = 256
	var sb bytes.Buffer
	sb.WriteString(`{"ips":[`)
	for j := 0; j < batchSize; j++ {
		if j > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q", geoserve.FormatIPv4(hits[(j*len(hits)/batchSize)%len(hits)]))
	}
	sb.WriteString(`]}`)
	body := sb.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var w nullResponseWriter
		rd := bytes.NewReader(nil)
		for pb.Next() {
			rd.Reset(body)
			req := httptest.NewRequest("POST", "/v1/locate/batch", rd)
			w.code, w.n = 0, 0
			h.ServeHTTP(&w, req)
			if w.code != http.StatusOK || w.n == 0 {
				b.Fatalf("batch status %d (%d bytes)", w.code, w.n)
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*batchSize), "ns/lookup")
}
