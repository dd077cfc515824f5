package core

import (
	"reflect"
	"runtime"
	"testing"

	"geonet/internal/geoloc"
	"geonet/internal/netsim"
	"geonet/internal/probe/mercator"
	"geonet/internal/probe/skitter"
	"geonet/internal/rng"
	"geonet/internal/topo"
)

// TestWorkersDeterminism is the contract behind GOMAXPROCS, the one
// parallelism bound: the same (seed, scale) must regenerate every
// table and figure byte-identically whether the pipeline and the
// analysis kernels run serially (GOMAXPROCS 1) or fanned out
// (GOMAXPROCS 8, so the parallel paths genuinely interleave even on a
// single-CPU machine).
func TestWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	// run builds the pipeline and every report at the given GOMAXPROCS.
	run := func(procs int) (*Pipeline, []Report) {
		runtime.GOMAXPROCS(procs)
		p, err := Run(TestConfig())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var reps []Report
		for _, e := range Experiments() {
			reps = append(reps, e.Run(p))
		}
		return p, reps
	}
	p1, r1 := run(1)
	p8, r8 := run(8)

	// The raw artefacts must already agree, so a report mismatch can
	// be localised to analysis rather than collection.
	if !reflect.DeepEqual(p1.RawSkitter, p8.RawSkitter) {
		t.Error("skitter raw graphs differ between GOMAXPROCS 1 and 8")
	}
	if !reflect.DeepEqual(p1.RawMercator, p8.RawMercator) {
		t.Error("mercator results differ between GOMAXPROCS 1 and 8")
	}

	for i, e := range Experiments() {
		if !reflect.DeepEqual(r1[i], r8[i]) {
			t.Errorf("experiment %q differs between GOMAXPROCS 1 and 8", e.ID)
			if f1, f8 := r1[i].Format(), r8[i].Format(); f1 != f8 {
				t.Logf("GOMAXPROCS=1:\n%s\nGOMAXPROCS=8:\n%s", f1, f8)
			}
		}
	}
}

// TestCacheBudgetDeterminism proves routing-table cache pressure is
// invisible in results: both collections re-run over a fabric forced
// to evict constantly (a budget of a handful of tables) produce the
// same raw data and the same Table I as the pipeline. A fabric at the
// default budget re-collects the same data too, and its cache holds
// more than the tiny budget allows, so the tiny one must evict. Tables
// are pure functions of the topology, so eviction may only cost time,
// never change a trace.
func TestCacheBudgetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the collections three times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const budget = 6
	p, err := Run(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Run draws each collector from a named split of the seed's root
	// stream; a split is a pure hash of seed and name.
	root := rng.New(p.Config.Seed)
	full := netsim.Compile(p.Internet)
	if sk := skitter.Collect(full, skitter.DefaultConfig(), root.Split("skitter")); !reflect.DeepEqual(sk, p.RawSkitter) {
		t.Error("skitter raw graphs differ on a fresh default-budget fabric")
	}
	if mc := mercator.Collect(full, mercator.DefaultConfig(), root.Split("mercator")); !reflect.DeepEqual(mc, p.RawMercator) {
		t.Error("mercator results differ on a fresh default-budget fabric")
	}
	if held := full.CachedTables(); held <= budget {
		t.Fatalf("default-budget fabric holds %d tables; a budget of %d would not force eviction", held, budget)
	}

	tiny := netsim.Compile(p.Internet)
	tiny.CacheBudget = budget
	q := *p
	q.RawSkitter = skitter.Collect(tiny, skitter.DefaultConfig(), root.Split("skitter"))
	q.RawMercator = mercator.Collect(tiny, mercator.DefaultConfig(), root.Split("mercator"))
	if !reflect.DeepEqual(q.RawSkitter, p.RawSkitter) {
		t.Error("skitter raw graphs differ under cache eviction pressure")
	}
	if !reflect.DeepEqual(q.RawMercator, p.RawMercator) {
		t.Error("mercator results differ under cache eviction pressure")
	}

	// Table I re-processed from the re-collected raw data.
	mappers := map[string]geoloc.Mapper{p.IxMapper.Name(): p.IxMapper, p.EdgeScape.Name(): p.EdgeScape}
	q.Datasets = map[Combo]*topo.Dataset{}
	for _, c := range TableICombos() {
		if c.Dataset == "skitter" {
			q.Datasets[c] = topo.FromSkitter(q.RawSkitter, mappers[c.Mapper], p.SkitterTable)
		} else {
			q.Datasets[c] = topo.FromMercator(q.RawMercator, mappers[c.Mapper], p.MercatorTable)
		}
	}
	r1, _ := RunExperiment(&q, "table1")
	r2, _ := RunExperiment(p, "table1")
	if !reflect.DeepEqual(r1, r2) {
		t.Error("Table I differs under cache eviction pressure")
	}
}

// TestRepeatedRunsIdentical guards the weaker (pre-existing) property
// that two runs at the same GOMAXPROCS agree, so a determinism break
// in the collectors themselves cannot hide behind a serial run.
func TestRepeatedRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, err := Run(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep1, _ := RunExperiment(a, "table1")
	rep2, _ := RunExperiment(b, "table1")
	if !reflect.DeepEqual(rep1, rep2) {
		t.Error("same config produced different Table I reports")
	}
}
