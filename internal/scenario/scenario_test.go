package scenario

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestMatrixExpansionOrderAndCount(t *testing.T) {
	m := Matrix{
		Seeds:    []int64{1, 2},
		Scales:   []float64{0.02, 0.05},
		Monitors: []int{0, 9},
	}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("got %d specs, want 8", len(specs))
	}
	// Seeds vary slowest, monitors fastest.
	wantFirst := []Spec{
		{Seed: 1, Scale: 0.02, Monitors: 0},
		{Seed: 1, Scale: 0.02, Monitors: 9},
		{Seed: 1, Scale: 0.05, Monitors: 0},
		{Seed: 1, Scale: 0.05, Monitors: 9},
		{Seed: 2, Scale: 0.02, Monitors: 0},
	}
	for i, want := range wantFirst {
		got := specs[i]
		if got.Seed != want.Seed || got.Scale != want.Scale || got.Monitors != want.Monitors {
			t.Errorf("spec[%d] = %s, want seed%d scale%g mon%d", i, got.Label(), want.Seed, want.Scale, want.Monitors)
		}
	}
}

func TestMatrixRequiresSeedAndScale(t *testing.T) {
	if _, err := (Matrix{Scales: []float64{0.02}}).Specs(); err == nil {
		t.Error("missing seeds should error")
	}
	if _, err := (Matrix{Seeds: []int64{1}}).Specs(); err == nil {
		t.Error("missing scales should error")
	}
}

func TestMatrixRejectsBadPlacement(t *testing.T) {
	m := Matrix{Seeds: []int64{1}, Scales: []float64{0.02}, Placement: []string{"waxman"}}
	if _, err := m.Specs(); err == nil {
		t.Error("unknown placement mode should error")
	}
}

func TestMatrixRejectsDuplicateAxisValues(t *testing.T) {
	m := Matrix{Seeds: []int64{1, 1}, Scales: []float64{0.02}}
	if _, err := m.Specs(); err == nil {
		t.Error("repeated axis value should error, not silently double work")
	}
}

func TestSpecLabelsDistinguishKnobs(t *testing.T) {
	zero := 0.0
	specs := []Spec{
		{Seed: 1, Scale: 0.02},
		{Seed: 1, Scale: 0.02, Monitors: 9},
		{Seed: 1, Scale: 0.02, ASCountFactor: 2},
		{Seed: 1, Scale: 0.02, ExtraLinks: &zero},
		{Seed: 1, Scale: 0.02, DistIndepFrac: &zero},
		{Seed: 1, Scale: 0.02, UniformPlacement: true},
	}
	seen := map[string]bool{}
	for _, s := range specs {
		l := s.Label()
		if seen[l] {
			t.Errorf("duplicate label %q", l)
		}
		seen[l] = true
	}
	if got := (Spec{Name: "custom", Seed: 1, Scale: 0.02}).Label(); got != "custom" {
		t.Errorf("explicit name ignored: %q", got)
	}
}

func TestCoreConfigValidation(t *testing.T) {
	if _, err := (Spec{Seed: 1}).CoreConfig(); err == nil {
		t.Error("zero scale should fail")
	}
	bad := -0.5
	if _, err := (Spec{Seed: 1, Scale: 0.02, DistIndepFrac: &bad}).CoreConfig(); err == nil {
		t.Error("negative distance-independent fraction should fail netgen validation")
	}
	if _, err := (Spec{Seed: 1, Scale: 0.02, ASCountFactor: -1}).CoreConfig(); err == nil {
		t.Error("negative AS count factor should fail netgen validation")
	}
	// Default spec carries no generator override at all.
	cfg, err := (Spec{Seed: 1, Scale: 0.02}).CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gen != nil {
		t.Error("un-ablated spec should not override the generator config")
	}
	// Ablated spec does, with the knob applied.
	cfg, err = (Spec{Seed: 1, Scale: 0.02, Monitors: 9}).CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gen == nil || cfg.Gen.NumSkitterMonitors != 9 {
		t.Errorf("monitor ablation not applied: %+v", cfg.Gen)
	}
}

func TestSweepFailsFastOnBadSpec(t *testing.T) {
	_, err := Sweep([]Spec{{Seed: 1, Scale: 0.02}, {Seed: 1, Scale: -1}}, Options{})
	if err == nil {
		t.Fatal("invalid spec must abort the sweep before running anything")
	}
}

func TestSweepRejectsDuplicateSpecs(t *testing.T) {
	// Spec lists can bypass Matrix.Specs (a JSON spec array given to
	// paperrepro sweep -spec), so Sweep itself must refuse to run a
	// scenario twice.
	dup := []Spec{{Seed: 1, Scale: 0.02}, {Seed: 1, Scale: 0.02}}
	if _, err := Sweep(dup, Options{}); err == nil {
		t.Error("duplicate specs must abort the sweep")
	}
	named := []Spec{{Name: "x", Seed: 1, Scale: 0.02}, {Name: "x", Seed: 2, Scale: 0.02}}
	if _, err := Sweep(named, Options{}); err == nil {
		t.Error("colliding explicit names must abort the sweep")
	}
}

func TestSweepEmpty(t *testing.T) {
	if _, err := Sweep(nil, Options{}); err == nil {
		t.Error("empty sweep should error")
	}
}

// TestSweepRunsAndReduces runs a real two-scenario sweep at a tiny
// scale: results come back in spec order, digests differ across
// seeds, progress streams, and the seed axis shows up in sensitivity.
func TestSweepRunsAndReduces(t *testing.T) {
	specs := []Spec{
		{Seed: 1, Scale: 0.01},
		{Seed: 2, Scale: 0.01},
	}
	// Two pipelines in flight at once, whatever the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var progress bytes.Buffer
	rep, err := Sweep(specs, Options{Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	for i, res := range rep.Results {
		if res.Label != specs[i].Label() {
			t.Errorf("result %d is %q, want %q — order must follow specs", i, res.Label, specs[i].Label())
		}
		if len(res.Digest) != 64 {
			t.Errorf("%s: digest %q is not a sha256 hex", res.Label, res.Digest)
		}
		if res.Metrics.Nodes == 0 || res.Metrics.Links == 0 {
			t.Errorf("%s: empty metrics %+v", res.Label, res.Metrics)
		}
	}
	if rep.Results[0].Digest == rep.Results[1].Digest {
		t.Error("different seeds produced identical digests")
	}
	out := progress.String()
	for _, want := range []string{"sweep: 2 scenarios", "seed1-scale0.01: done", "seed2-scale0.01: done"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}

	table := rep.FormatTable()
	if !strings.Contains(table, "seed1-scale0.01") || !strings.Contains(table, "Digest") {
		t.Errorf("FormatTable missing content:\n%s", table)
	}
	sens := rep.FormatSensitivity()
	if !strings.Contains(sens, "Sensitivity along seed") {
		t.Errorf("sensitivity should include the seed axis:\n%s", sens)
	}
	if strings.Contains(sens, "Sensitivity along scale") {
		t.Errorf("scale does not vary; it should not get a table:\n%s", sens)
	}
}

func TestPrefixWriterSplitsLines(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	pw := &prefixWriter{w: &out, mu: &mu, prefix: "[x] "}
	pw.Write([]byte("hello "))
	pw.Write([]byte("world\npart"))
	pw.Write([]byte("ial\n"))
	want := "[x] hello world\n[x] partial\n"
	if out.String() != want {
		t.Errorf("got %q, want %q", out.String(), want)
	}
}
