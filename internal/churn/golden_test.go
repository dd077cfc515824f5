package churn_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"geonet/internal/churn"
	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
	"geonet/internal/rng"
)

var update = flag.Bool("update", false, "rewrite the golden churn corpus from current output")

const (
	corpusSeed   = 7
	corpusSteps  = 6
	corpusEvents = 8
)

var (
	fixOnce sync.Once
	fixPipe *core.Pipeline
	fixSnap *geoserve.Snapshot
)

// fixture builds one test-scale pipeline and its from-scratch snapshot,
// shared across the package's tests.
func fixture(tb testing.TB) (*core.Pipeline, *geoserve.Snapshot) {
	tb.Helper()
	fixOnce.Do(func() {
		p, err := core.Run(core.TestConfig())
		if err != nil {
			panic(err)
		}
		snap, err := p.Serve()
		if err != nil {
			panic(err)
		}
		fixPipe, fixSnap = p, snap
	})
	return fixPipe, fixSnap
}

// goldenStep is the persisted per-step record: the applied events, the
// resulting snapshot digest, and what the delta compile did.
type goldenStep struct {
	N      int                 `json:"n"`
	Events []churn.Event       `json:"events"`
	Dirty  []uint32            `json:"dirty"`
	Digest string              `json:"digest"`
	Stats  geoserve.DeltaStats `json:"stats"`
}

func corpusPath() string { return filepath.Join("testdata", "churn_corpus.golden.json") }

// TestGoldenChurnCorpus is the tentpole invariant, executable: at every
// step of a seeded churn stream the delta-compiled snapshot must be
// byte-identical (same content digest) to a from-scratch Compile of the
// same churned source, the delta must actually be incremental (most
// rows copied), and sharded clusters at widths 1, 2 and 8 must answer
// from the delta-swapped epoch exactly as the snapshot's own rows say.
// The per-step digests are pinned in testdata so cross-version drift in
// either compile path is caught; regenerate deliberate changes with
//
//	go test ./internal/churn -run TestGoldenChurnCorpus -update
func TestGoldenChurnCorpus(t *testing.T) {
	p, full0 := fixture(t)
	ch, err := p.Churner(core.ServeOptions{}, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}

	clusters := map[int]*geoserve.Cluster{}
	for _, n := range []int{1, 2, 8} {
		cl, err := geoserve.NewCluster(full0, geoserve.ClusterConfig{Shards: n})
		if err != nil {
			t.Fatalf("%d-shard cluster: %v", n, err)
		}
		clusters[n] = cl
	}

	probeRNG := rng.New(corpusSeed).Split("probes")
	prev := full0
	kinds := map[churn.Kind]int{}
	var got []goldenStep
	for i := 0; i < corpusSteps; i++ {
		step, err := ch.Next(corpusEvents)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range step.Events {
			kinds[ev.Kind]++
		}

		delta, stats, err := p.ServeDelta(prev, step)
		if err != nil {
			t.Fatalf("step %d: delta compile: %v", step.N, err)
		}
		full, err := geoserve.Compile(step.Source)
		if err != nil {
			t.Fatalf("step %d: full compile: %v", step.N, err)
		}
		if delta.Digest() != full.Digest() {
			t.Fatalf("step %d: delta-compiled digest %s diverged from from-scratch %s (events %+v)",
				step.N, delta.Digest(), full.Digest(), step.Events)
		}
		if stats.Rows != delta.NumPrefixes()+delta.NumExactIPs() {
			t.Fatalf("step %d: stats cover %d rows, snapshot has %d", step.N, stats.Rows, delta.NumPrefixes()+delta.NumExactIPs())
		}
		if stats.Rows-stats.Recompiled-stats.Patched <= stats.Recompiled {
			t.Fatalf("step %d: not incremental: %d copied vs %d recompiled", step.N, stats.Rows-stats.Recompiled-stats.Patched, stats.Recompiled)
		}

		if i == 0 {
			// GOMAXPROCS independence holds on the delta path too.
			procs := runtime.GOMAXPROCS(3)
			alt, _, err := geoserve.CompileDelta(prev, step.Source, step.Dirty)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				t.Fatal(err)
			}
			if alt.Digest() != delta.Digest() {
				t.Fatalf("step %d: digest depends on GOMAXPROCS", step.N)
			}
		}

		// Per-shard delta publish: every cluster width swaps to the new
		// epoch and answers exactly as the snapshot's rows say.
		for n, cl := range clusters {
			if _, _, err := cl.SwapDelta(delta, stats.Touched); err != nil {
				t.Fatalf("step %d: %d-shard SwapDelta: %v", step.N, n, err)
			}
			if d := cl.Snapshot().Digest(); d != delta.Digest() {
				t.Fatalf("step %d: %d-shard cluster serves %s, want %s", step.N, n, d, delta.Digest())
			}
			prefixes, exact := delta.Prefixes(), delta.ExactIPs()
			for k := 0; k < 32; k++ {
				ip := prefixes[probeRNG.Intn(len(prefixes))] + uint32(probeRNG.Intn(256))
				if k%2 == 0 && len(exact) > 0 {
					ip = exact[probeRNG.Intn(len(exact))]
				}
				for m := range delta.Mappers() {
					if got, want := cl.Lookup(m, ip), delta.Lookup(m, ip); got != want {
						t.Fatalf("step %d: %d-shard answer for %d mapper %d: %+v, snapshot row says %+v",
							step.N, n, ip, m, got, want)
					}
				}
			}
		}

		got = append(got, goldenStep{N: step.N, Events: step.Events, Dirty: step.Dirty, Digest: delta.Digest(), Stats: stats})
		prev = delta
	}

	// The stream must exercise every event kind, including the two
	// whose effects CompileDelta detects without a dirty hint.
	for k := churn.Kind(0); k < churn.Kind(5); k++ {
		if kinds[k] == 0 {
			t.Errorf("corpus stream never drew %v — adjust seed or step count", k)
		}
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d steps", corpusPath(), len(got))
		return
	}
	data, err := os.ReadFile(corpusPath())
	if err != nil {
		t.Fatalf("missing golden corpus (run with -update to create): %v", err)
	}
	var want []goldenStep
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden corpus: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden corpus has %d steps, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i].Digest != want[i].Digest {
			t.Errorf("step %d: digest drifted:\n got  %s\n want %s\n"+
				"churn or compile output changed; if intentional, rerun with -update and review the diff",
				got[i].N, got[i].Digest, want[i].Digest)
		}
	}
}

// TestIncrementalDigestMatchesFromScratch pins the leaf reuse end to
// end: over 24 steps of the seeded churn stream, the digest and leaves
// CompileDelta reaches against the builder's previous epoch, and those
// Apply reaches against a replica's, each equal the digest and leaves
// of the same groups derived from nothing (every leaf group rehashed
// and every record rechecked).
func TestIncrementalDigestMatchesFromScratch(t *testing.T) {
	p, full0 := fixture(t)
	ch, err := p.Churner(core.ServeOptions{}, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	prev, rep := full0, full0
	for i := uint64(1); i <= 24; i++ {
		step, err := ch.Next(corpusEvents)
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := p.ServeDelta(prev, step)
		if err != nil {
			t.Fatalf("step %d: delta compile: %v", step.N, err)
		}
		delta, err := snapfile.Diff(prev, snap, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		applied, _, err := snapfile.Apply(rep, delta)
		if err != nil {
			t.Fatalf("step %d: apply: %v", step.N, err)
		}
		for _, c := range []struct {
			path string
			snap *geoserve.Snapshot
		}{{"CompileDelta", snap}, {"Apply", applied}} {
			scratch, err := geoserve.Derive(nil, c.snap.Header(), c.snap.Groups())
			if err != nil {
				t.Fatal(err)
			}
			if c.snap.Digest() != scratch.Digest() || !slices.Equal(c.snap.Leaves(), scratch.Leaves()) {
				t.Fatalf("step %d: %s digest %.16s, from scratch %.16s (leaves equal: %v)", step.N, c.path,
					c.snap.Digest(), scratch.Digest(), slices.Equal(c.snap.Leaves(), scratch.Leaves()))
			}
		}
		prev, rep = snap, applied
	}
}

// TestChurnDeterministic pins replayability: the same (source, seed)
// produces the same event stream and the same snapshot digests; a
// different seed diverges.
func TestChurnDeterministic(t *testing.T) {
	p, _ := fixture(t)

	digests := func(seed int64) []string {
		t.Helper()
		ch, err := p.Churner(core.ServeOptions{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 3; i++ {
			step, err := ch.Next(6)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := geoserve.Compile(step.Source)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, snap.Digest())
		}
		return out
	}

	a, b := digests(11), digests(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: same seed diverged: %s vs %s", i+1, a[i], b[i])
		}
	}
	c := digests(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}
