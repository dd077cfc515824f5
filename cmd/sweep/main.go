// Command sweep runs many reproduction pipelines as one workload: a
// spec matrix expands into scenarios (seed × scale × netgen
// ablations), the scenarios run concurrently, and the output is per-scenario report digests plus
// cross-scenario sensitivity tables — how Table-I mapper agreement and
// the Section V distance-preference exponent move along each axis.
//
// Usage:
//
//	sweep -seeds 1,2,3 -scales 0.02,0.05
//	sweep -seeds 1 -scales 0.02 -monitors 9,19 -placement population,uniform
//	sweep -spec specs.json -json
//
// Matrix axes come from comma-separated flags, or -spec names a JSON
// file holding either a scenario.Matrix object or a bare array of
// specs. -workers caps GOMAXPROCS, the one bound on how many pipelines
// run at once and on every goroutine inside them (0 = one per CPU).
// -json emits the full report as JSON instead of tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"geonet/internal/scenario"
)

func main() {
	seeds := flag.String("seeds", "", "comma-separated world seeds (required unless -spec)")
	scales := flag.String("scales", "", "comma-separated world scales (required unless -spec)")
	monitors := flag.String("monitors", "", "skitter monitor count axis")
	asFactors := flag.String("ascount", "", "AS count factor axis (>1 = more, smaller ASes)")
	extraLinks := flag.String("extralinks", "", "mean extra links per router axis")
	distIndep := flag.String("distindep", "", "distance-independent link fraction axis")
	placement := flag.String("placement", "", "placement axis: population,uniform")
	specFile := flag.String("spec", "", "JSON file: a matrix object or an array of specs")
	workers := flag.Int("workers", 0, "GOMAXPROCS cap shared by all pipelines (0 = one per CPU)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	verbose := flag.Bool("v", false, "forward per-pipeline stage progress")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "sweep: -workers must be >= 0")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(*workers) // 0 leaves it at one per CPU

	specs, err := specsFromFlags(*specFile, axisFlags{
		Seeds:      *seeds,
		Scales:     *scales,
		Monitors:   *monitors,
		ASCount:    *asFactors,
		ExtraLinks: *extraLinks,
		DistIndep:  *distIndep,
		Placement:  *placement,
	})
	if err != nil {
		fail(err)
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	rep, err := scenario.Sweep(specs, scenario.Options{
		Progress: progress,
		Verbose:  *verbose,
	})
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		return
	}
	fmt.Println(rep.FormatTable())
	fmt.Println(rep.FormatSensitivity())
}

// axisFlags carries the raw comma-separated matrix axis flag values.
type axisFlags struct {
	Seeds      string
	Scales     string
	Monitors   string
	ASCount    string
	ExtraLinks string
	DistIndep  string
	Placement  string
}

// specsFromFlags resolves the spec list from either the JSON file or
// the matrix flags — the whole flag→Matrix construction minus process
// concerns, so tests can drive it with synthetic values.
func specsFromFlags(specFile string, f axisFlags) ([]scenario.Spec, error) {
	if specFile != "" {
		return loadSpecFile(specFile)
	}
	m, err := f.matrix()
	if err != nil {
		return nil, err
	}
	return m.Specs()
}

// matrix parses every axis flag into a scenario.Matrix.
func (f axisFlags) matrix() (scenario.Matrix, error) {
	m := scenario.Matrix{}
	if f.Seeds == "" || f.Scales == "" {
		return m, fmt.Errorf("need -seeds and -scales (or -spec FILE); see -h")
	}
	var err error
	if m.Seeds, err = parseInt64s(f.Seeds); err != nil {
		return m, fmt.Errorf("-seeds: %w", err)
	}
	if m.Scales, err = parseFloats(f.Scales); err != nil {
		return m, fmt.Errorf("-scales: %w", err)
	}
	if m.Monitors, err = parseInts(f.Monitors); err != nil {
		return m, fmt.Errorf("-monitors: %w", err)
	}
	if m.ASCountFactors, err = parseFloats(f.ASCount); err != nil {
		return m, fmt.Errorf("-ascount: %w", err)
	}
	if m.ExtraLinks, err = parseFloats(f.ExtraLinks); err != nil {
		return m, fmt.Errorf("-extralinks: %w", err)
	}
	if m.DistIndepFracs, err = parseFloats(f.DistIndep); err != nil {
		return m, fmt.Errorf("-distindep: %w", err)
	}
	if f.Placement != "" {
		m.Placement = splitList(f.Placement)
	}
	return m, nil
}

// loadSpecFile reads either a {"seeds": [...], ...} matrix object or a
// bare [{"seed": 1, ...}, ...] spec array.
func loadSpecFile(path string) ([]scenario.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var specs []scenario.Spec
		if err := json.Unmarshal(data, &specs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return specs, nil
	}
	var m scenario.Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m.Specs()
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	vs, err := parseInt64s(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
