// Command paperrepro runs the full reproduction pipeline and
// regenerates every table and figure of "On the Geographic Location of
// Internet Resources" (Lakhina et al., IMC 2002).
//
// Usage:
//
//	paperrepro [-seed N] [-scale F] [-workers N] [-only id,id,...] [-data DIR] [-quiet]
//	paperrepro [-seed N] [-scale F] locate [-mapper NAME] < addresses
//	paperrepro [-seed N] topogen [-model M] [-n N] [-region R]
//	paperrepro [-seed N] [-scale F] sweep [-seeds L] [-scales L] [axis lists | -spec FILE] [-json] [-v]
//
// -scale 0.1 (default) builds a ~60k-interface world; -scale 1.0
// approximates the paper's full 563k-interface Skitter snapshot (slow).
// -workers caps GOMAXPROCS, the one bound on the pipeline's and the
// analysis kernels' parallelism (0 = leave it at one per CPU); in a
// sweep it also bounds how many pipelines run at once. Output is
// byte-identical for any value. -data writes every figure's data
// series as gnuplot-style .dat files. Progress — including the world's
// inventory and both collections' statistics — goes to stderr.
//
// locate geolocates IPv4 addresses, one per line on stdin, against the
// world's compiled serving snapshot: each answer line is exactly the
// body GET /v1/locate?ip=&mapper= returns for it (location, method,
// confidence radius and origin AS). An empty -mapper means the first
// mapper, as on the API. A malformed line is reported on stderr and
// makes the exit status 1.
//
// topogen generates a test topology with one of the models the paper
// discusses — waxman, er (Erdős–Rényi), ba (Barabási–Albert) or geogen
// (the geography-driven generator of Section VII) — and prints "N lat
// lon asn" node lines and "L a b miles latency_ms" link lines.
//
// sweep runs a matrix of scenarios (internal/scenario) concurrently.
// Its axes are the comma lists -seeds, -scales, -monitors, -ascount,
// -extralinks, -distindep and -placement; an omitted -seeds or -scales
// is the top-level -seed or -scale. -spec FILE names the whole sweep
// instead, as a JSON scenario.Matrix object or scenario.Spec array, and
// takes no axis flag beside it. It prints each scenario's report digest
// and headline metrics and one sensitivity table per varying axis, or
// with -json the report as JSON.
//
//	paperrepro sweep -seeds 1,2,3 -scales 0.02,0.05
//	paperrepro -scale 0.02 sweep -monitors 9,19 -placement population,uniform
//
// A usage error exits 2: a bad flag or axis value, an unknown command,
// model, region, mapper or placement, a duplicate spec, an unreadable
// or malformed -spec file. A failed pipeline exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"geonet/internal/core"
	"geonet/internal/geo"
	"geonet/internal/geoserve"
	"geonet/internal/population"
	"geonet/internal/rng"
	"geonet/internal/scenario"
	"geonet/internal/topogen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, dispatches on the
// subcommand and returns the exit status (2 for a usage error).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "world seed")
	scale := fs.Float64("scale", 0.1, "world scale relative to the paper's Skitter snapshot")
	workers := fs.Int("workers", 0, "GOMAXPROCS cap (0 = one per CPU); results are identical for any value")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	dataDir := fs.String("data", "", "directory to write figure data series (.dat files)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if fs.Parse(args) != nil {
		return 2
	}

	if *workers < 0 {
		return fail(stderr, 2, fmt.Errorf("-workers must be >= 0"))
	}
	runtime.GOMAXPROCS(*workers) // 0 leaves it at one per CPU
	cfg := core.Config{Seed: *seed, Scale: *scale, Progress: stderr}
	if err := cfg.Validate(); err != nil {
		return fail(stderr, 2, err)
	}
	if *quiet {
		cfg.Progress = nil
	}

	switch cmd := fs.Arg(0); cmd {
	case "locate":
		return locate(cfg, fs.Args()[1:], stdin, stdout, stderr)
	case "topogen":
		return genTopology(cfg, fs.Args()[1:], stdout, stderr)
	case "sweep":
		return sweep(cfg, fs.Args()[1:], stdout, stderr)
	case "":
	default:
		return fail(stderr, 2, fmt.Errorf("unknown command %q (locate, topogen, sweep, or none to reproduce the paper)", cmd))
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}
	want, err := selectExperiments(*only, core.Experiments())
	if err != nil {
		return fail(stderr, 2, err)
	}
	p, err := core.Run(cfg)
	if err != nil {
		return fail(stderr, 1, err)
	}
	for _, e := range core.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		rep := e.Run(p)
		fmt.Fprintln(stdout, rep.Format())
		if *dataDir != "" {
			if err := writeData(*dataDir, rep); err != nil {
				return fail(stderr, 1, err)
			}
		}
	}
	return 0
}

// locate answers stdin's addresses from the world's serving snapshot,
// one GET /v1/locate body per address.
func locate(cfg core.Config, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperrepro locate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mapper := fs.String("mapper", "", "mapper to answer with (default: the first, as on the API)")
	if fs.Parse(args) != nil {
		return 2
	}
	p, err := core.Run(cfg)
	if err != nil {
		return fail(stderr, 1, err)
	}
	snap, err := p.Serve()
	if err != nil {
		return fail(stderr, 1, err)
	}
	name := *mapper
	if name == "" {
		name = snap.Mappers()[0]
	}
	idx, ok := snap.MapperIndex(name)
	if !ok {
		return fail(stderr, 2, fmt.Errorf("unknown mapper %q (have %v)", name, snap.Mappers()))
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	status := 0
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ip, err := geoserve.ParseIPv4(line)
		if err != nil {
			status = fail(stderr, 1, err)
			continue
		}
		w.Write(geoserve.MarshalAnswerJSON(snap.Lookup(idx, ip), name))
	}
	if err := sc.Err(); err != nil {
		return fail(stderr, 1, err)
	}
	return status
}

// genTopology prints one generated test topology; the seed is the
// top-level -seed.
func genTopology(cfg core.Config, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperrepro topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "geogen", "waxman | er | ba | geogen")
	n := fs.Int("n", 2000, "node count")
	regionName := fs.String("region", "US", "US | Europe | Japan")
	if fs.Parse(args) != nil {
		return 2
	}
	region, ok := map[string]geo.Region{"US": geo.US, "Europe": geo.Europe, "Japan": geo.Japan}[*regionName]
	if !ok {
		return fail(stderr, 2, fmt.Errorf("unknown region %q", *regionName))
	}

	s := rng.New(cfg.Seed)
	var g *topogen.Graph
	switch *model {
	case "waxman":
		g = topogen.Waxman(*n, region, 0.05, 0.4, s)
	case "er":
		g = topogen.ErdosRenyi(*n, region, 3.0/float64(*n), s)
	case "ba":
		g = topogen.BarabasiAlbert(*n, 2, region, s)
	case "geogen":
		world := population.Build(s.Split("world"))
		gcfg := topogen.DefaultGeoGenConfig()
		gcfg.Nodes = *n
		g = topogen.GeoGen(gcfg, world, region, s.Split("gen"))
	default:
		return fail(stderr, 2, fmt.Errorf("unknown model %q", *model))
	}

	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "%s: %d nodes, %d links\n", g.Name, len(g.Nodes), len(g.Links))
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintln(w, "# nodes: lat lon asn")
	for _, nd := range g.Nodes {
		fmt.Fprintf(w, "N %.4f %.4f %d\n", nd.Loc.Lat, nd.Loc.Lon, nd.ASN)
	}
	fmt.Fprintln(w, "# links: a b miles latency_ms")
	for i, l := range g.Links {
		fmt.Fprintf(w, "L %d %d %.1f %.2f\n", l.A, l.B, l.LengthMi, g.LatencyMs[i])
	}
	return 0
}

// fail reports err on stderr and returns the exit status code.
func fail(stderr io.Writer, code int, err error) int {
	fmt.Fprintln(stderr, "paperrepro:", err)
	return code
}

// selectExperiments parses -only's comma-separated ids into the set to
// run (empty = all), rejecting any id that names no experiment.
func selectExperiments(only string, all []core.Experiment) (map[string]bool, error) {
	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.ID
	}
	ids, _ := parseList(only, asString) // asString accepts every item
	want := map[string]bool{}
	for _, id := range ids {
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

// sweep runs a scenario sweep and prints the per-scenario table and the
// sensitivity tables, or the report as JSON. The specs come from the
// axis flags, an omitted -seeds or -scales being the top-level -seed
// or -scale, or from a -spec file.
func sweep(cfg core.Config, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperrepro sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	m := scenario.Matrix{Seeds: []int64{cfg.Seed}, Scales: []float64{cfg.Scale}}
	listFlag(fs, "seeds", "comma-separated world seeds (default: -seed)", &m.Seeds, parseInt64)
	listFlag(fs, "scales", "comma-separated world scales (default: -scale)", &m.Scales, parseFloat)
	listFlag(fs, "monitors", "skitter monitor count axis", &m.Monitors, strconv.Atoi)
	listFlag(fs, "ascount", "AS count factor axis (>1 = more, smaller ASes)", &m.ASCountFactors, parseFloat)
	listFlag(fs, "extralinks", "mean extra links per router axis", &m.ExtraLinks, parseFloat)
	listFlag(fs, "distindep", "distance-independent link fraction axis", &m.DistIndepFracs, parseFloat)
	listFlag(fs, "placement", "placement axis: population,uniform", &m.Placement, asString)
	specFile := fs.String("spec", "", "JSON file: a matrix object or an array of specs (no axis flags with it)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	verbose := fs.Bool("v", false, "forward per-pipeline stage progress")
	if fs.Parse(args) != nil {
		return 2
	}

	var specs []scenario.Spec
	var err error
	if *specFile != "" {
		specs, err = loadSpecFile(fs, *specFile)
	} else {
		specs, err = m.Specs()
	}
	if err == nil {
		err = scenario.Validate(specs)
	}
	if err != nil {
		return fail(stderr, 2, err)
	}
	rep, err := scenario.Sweep(specs, scenario.Options{Progress: cfg.Progress, Verbose: *verbose})
	if err != nil {
		return fail(stderr, 1, err)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail(stderr, 1, err)
		}
		return 0
	}
	fmt.Fprintln(stdout, rep.FormatTable())
	fmt.Fprintln(stdout, rep.FormatSensitivity())
	return 0
}

// loadSpecFile reads a -spec file, either a {"seeds": [...], ...}
// matrix object or a bare [{"seed": 1, ...}, ...] spec array. The file
// names the whole sweep, so an axis flag set beside it is an error, and
// so is a key neither form has.
func loadSpecFile(fs *flag.FlagSet, path string) ([]scenario.Spec, error) {
	var axes []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "spec" && f.Name != "json" && f.Name != "v" {
			axes = append(axes, "-"+f.Name)
		}
	})
	if len(axes) > 0 {
		return nil, fmt.Errorf("-spec names the whole sweep; %s cannot be given with it", strings.Join(axes, ", "))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []scenario.Spec
	var m scenario.Matrix
	array := bytes.HasPrefix(bytes.TrimSpace(data), []byte("["))
	dst := any(&m)
	if array {
		dst = &specs
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return nil, fmt.Errorf("%s: data after the JSON value", path)
	}
	if array {
		return specs, nil
	}
	return m.Specs()
}

// listFlag defines a comma-list flag that parses into *dst, replacing
// its default when given.
func listFlag[T any](fs *flag.FlagSet, name, usage string, dst *[]T, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) (err error) {
		*dst, err = parseList(s, parse)
		return err
	})
}

// parseList parses a comma-separated value item by item, each trimmed
// of spaces; an empty value is an empty list and an empty item is
// parsed like any other.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		v, err := parse(item)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", item)
		}
		out = append(out, v)
	}
	return out, nil
}

func asString(s string) (string, error) { return s, nil }

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
