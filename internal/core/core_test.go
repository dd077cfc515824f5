package core

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// The pipeline is expensive; run it once for the whole package,
// examples included (see export_test.go).
var testPipe *Pipeline

func pipeline(tb testing.TB) *Pipeline {
	tb.Helper()
	p, err := sharedPipeline()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func sharedPipeline() (*Pipeline, error) {
	if testPipe == nil {
		p, err := Run(TestConfig())
		if err != nil {
			return nil, err
		}
		testPipe = p
	}
	return testPipe, nil
}

func TestPipelineProducesFourDatasets(t *testing.T) {
	p := pipeline(t)
	combos := []Combo{
		{"mercator", "ixmapper"}, {"skitter", "ixmapper"},
		{"mercator", "edgescape"}, {"skitter", "edgescape"},
	}
	for _, c := range combos {
		ds, ok := p.Datasets[c]
		if !ok {
			t.Fatalf("missing dataset %v", c)
		}
		if len(ds.Nodes) == 0 || len(ds.Links) == 0 {
			t.Fatalf("dataset %v is empty", c)
		}
	}
	// Skitter sees more than Mercator, as in the paper (704k vs 268k).
	sk := p.Dataset("skitter", "ixmapper")
	mc := p.Dataset("mercator", "ixmapper")
	if len(sk.Nodes) <= len(mc.Nodes) {
		t.Errorf("skitter (%d) should out-discover mercator (%d)", len(sk.Nodes), len(mc.Nodes))
	}
}

func TestAllExperimentsRun(t *testing.T) {
	p := pipeline(t)
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		rep := e.Run(p)
		if rep.ID != e.ID {
			t.Errorf("experiment %q returned report id %q", e.ID, rep.ID)
		}
		out := rep.Format()
		if !strings.Contains(out, e.ID) {
			t.Errorf("report for %q renders without its id", e.ID)
		}
		if len(rep.Tables) == 0 && len(rep.Series) == 0 {
			t.Errorf("experiment %q produced no output", e.ID)
		}
	}
	// Every paper table and figure must be covered.
	for _, id := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"figure1", "figure2", "figure4", "figure5", "figure6",
		"figure7", "figure8", "figure9", "figure10", "appendix",
	} {
		if !seen[id] {
			t.Errorf("experiment registry missing %q", id)
		}
	}
}

func TestRunExperimentByID(t *testing.T) {
	p := pipeline(t)
	rep, err := RunExperiment(p, "table1")
	if err != nil || rep.ID != "table1" {
		t.Fatalf("RunExperiment: %v, %q", err, rep.ID)
	}
	if _, err := RunExperiment(p, "nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestHeadlineFindingsHold(t *testing.T) {
	p := pipeline(t)

	// Section IV: density grows with population. At the tiny test
	// scale the slope is attenuated (few nodes per patch dilutes the
	// log-log regression toward zero), so this asserts a strong
	// positive relationship; the full-scale run recorded in
	// EXPERIMENTS.md shows the paper's superlinear (>1) band.
	repD, _ := RunExperiment(p, "figure2")
	foundSuper := false
	for _, row := range repD.Tables[0].Rows {
		if row[0] == "skitter" && row[1] == "US" {
			slope := cellFloat(t, row[2])
			if slope < 0.7 {
				t.Errorf("US skitter density slope = %v, want strongly positive", slope)
			}
			if slope > 2.2 {
				t.Errorf("US skitter density slope = %v, implausibly high", slope)
			}
			foundSuper = true
		}
	}
	if !foundSuper {
		t.Fatal("figure2 report missing US skitter row")
	}

	// Section V: distance-sensitive majority in the US.
	rep5, _ := RunExperiment(p, "table5")
	for _, row := range rep5.Tables[0].Rows {
		if row[0] == "skitter" && row[1] == "US" {
			frac := cellFloat(t, strings.TrimSuffix(row[3], "%"))
			if frac < 55 {
				t.Errorf("US distance-sensitive link share = %.1f%%, paper: 75-95%%", frac)
			}
		}
	}

	// Section VI: most ASes have zero hull area.
	rep9, _ := RunExperiment(p, "figure9")
	for _, row := range rep9.Tables[0].Rows {
		if row[0] == "World" {
			if zf := cellFloat(t, row[2]); zf < 0.5 {
				t.Errorf("zero-hull fraction = %v, paper: ~0.8", zf)
			}
		}
	}
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", s, err)
	}
	return v
}

// TestRunRejectsInvalidScale pins that Run refuses a scale that is not
// finite and positive — the zero value included — instead of building
// a default-scale world or an empty one in its place.
func TestRunRejectsInvalidScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		p, err := Run(Config{Seed: 1, Scale: scale})
		if err == nil || p != nil {
			t.Errorf("Run(scale %g) = %v, %v; want an error and no pipeline", scale, p, err)
		}
	}
}
