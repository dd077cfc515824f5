// Command paperrepro runs the full reproduction pipeline and
// regenerates every table and figure of "On the Geographic Location of
// Internet Resources" (Lakhina et al., IMC 2002).
//
// Usage:
//
//	paperrepro [-seed N] [-scale F] [-workers N] [-only id,id,...] [-data DIR] [-quiet]
//
// -scale 0.1 (default) builds a ~60k-interface world; -scale 1.0
// approximates the paper's full 563k-interface Skitter snapshot (slow).
// -workers bounds the pipeline's parallelism (0 = one per CPU); it
// also pins GOMAXPROCS so the analysis phase respects the same cap.
// Output is byte-identical for any value. -data writes every figure's
// data series as gnuplot-style .dat files.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"geonet/internal/core"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 0.1, "world scale relative to the paper's Skitter snapshot")
	workers := flag.Int("workers", 0, "parallel workers (0 = one per CPU); results are identical for any value")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	dataDir := flag.String("data", "", "directory to write figure data series (.dat files)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *workers > 0 {
		// Hard-cap CPU use everywhere, including the experiment
		// analysis kernels that fan out to GOMAXPROCS rather than
		// reading Config.Workers.
		runtime.GOMAXPROCS(*workers)
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	want, err := selectExperiments(*only, core.Experiments())
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(2)
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	p, err := core.Run(core.Config{Seed: *seed, Scale: *scale, Workers: *workers, Progress: progress})
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}

	for _, e := range core.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		rep := e.Run(p)
		fmt.Println(rep.Format())
		if *dataDir != "" {
			if err := writeData(*dataDir, rep); err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro:", err)
				os.Exit(1)
			}
		}
	}
}

// selectExperiments parses -only's comma-separated ids into the set to
// run (empty = all), rejecting any id that names no experiment.
func selectExperiments(only string, all []core.Experiment) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.ID
	}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment id %q; valid ids: %s", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func writeData(dir string, rep core.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range rep.DataFiles() {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
