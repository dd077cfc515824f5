// Command bench is the repository's one benchmark harness: four named
// workloads over the serving stack, measured end to end, and a traced
// run that times every layer from outside. BENCHMARK.json at the
// repository root describes it; README.md says what every metric
// means and what it should move.
//
//	go run -C bench . -workload fleet-bin -seed 7 -seconds 15 -trace 0
//	go run -C bench . -all
//	go run -C bench . -smoke
//	go run -C bench . -compare [-force] a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: inproc-lookup, fleet-bin, fleet-json or churn-epochs")
		seed    = fs.Int64("seed", 1, "seed of the address streams and the churn stream")
		seconds = fs.Int("seconds", 15, "length of the measurement window (traced: of windows and ladder together)")
		trace   = fs.Int("trace", 0, "1: the traced run, which prints the per-layer metrics and writes spans")
		all     = fs.Bool("all", false, "run every workload, untraced then traced")
		asJSON  = fs.Bool("json", false, "print only the result line, not the metric lines")
		smoke   = fs.Bool("smoke", false, "run every workload small and short; check correctness and that every metric is emitted")
		cmp     = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		force   = fs.Bool("force", false, "with -compare: compare across mismatched fingerprints")
		outDir  = fs.String("out", "out", "directory for result files, traces and temporary files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		a, err := loadResult(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := loadResult(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		flagged, err := compare(a, b, *force, stdout)
		if err != nil {
			return fail(err)
		}
		if flagged > 0 {
			return 1
		}
		return 0
	}

	var runs []options
	switch {
	case *smoke:
		runs = smokeRuns(*seed, *outDir)
	case *all:
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				runs = append(runs, defaultOptions(w, *seed, *seconds, tr, *outDir))
			}
		}
	default:
		w := findWorkload(*name)
		if w == nil || *seconds < 1 {
			fs.Usage()
			return 2
		}
		runs = []options{defaultOptions(w, *seed, *seconds, *trace != 0, *outDir)}
	}

	code := 0
	for _, o := range runs {
		res, err := run(o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", o.workload.name, err))
		}
		if err := report(res, o.outDir, !*asJSON, stdout); err != nil {
			return fail(err)
		}
		if !res.Correct {
			for _, e := range res.Errors {
				fmt.Fprintf(stderr, "bench: %s: %s\n", res.Workload, e)
			}
			code = 1
		}
	}
	return code
}

// smokeRuns is every workload, untraced and traced, on a small world
// with windows of about a second.
func smokeRuns(seed int64, outDir string) []options {
	var runs []options
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			o := options{workload: w, seed: seed, seconds: 1, trace: tr,
				scale: 0.02, rounds: 1, warm: 100 * time.Millisecond, drill: 3, outDir: outDir}
			if tr {
				o.seconds = 2 // two windows of 0.5 s and a ladder of 1 s
			}
			runs = append(runs, o)
		}
	}
	return runs
}

// contractLine is the last line of a run's output, in the shape the
// benchmark contract fixes.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report writes the result file, prints the metrics as "name value
// unit" lines when text is set, and prints the contract line last.
func report(res *result, outDir string, text bool, stdout io.Writer) error {
	defs, mode := endToEnd, "e2e"
	if res.Trace {
		defs, mode = perLayer, "layers"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result-"+res.Workload+"-"+mode+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line := contractLine{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: map[string]contractValue{}}
	if text {
		fmt.Fprintf(stdout, "# %s seed %d, %d s, %s\n", res.Workload, res.Seed, res.Seconds, mode)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line.Metrics[d.Name] = contractValue{m.Value, m.Unit}
		if text {
			fmt.Fprintf(stdout, "%s %.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}
