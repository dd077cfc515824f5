// Command paperrepro runs the full reproduction pipeline and
// regenerates every table and figure of "On the Geographic Location of
// Internet Resources" (Lakhina et al., IMC 2002).
//
// Usage:
//
//	paperrepro [-seed N] [-scale F] [-workers N] [-only id,id,...] [-data DIR] [-quiet]
//	paperrepro [-seed N] [-scale F] locate [-mapper NAME] < addresses
//	paperrepro [-seed N] topogen [-model M] [-n N] [-region R]
//
// -scale 0.1 (default) builds a ~60k-interface world; -scale 1.0
// approximates the paper's full 563k-interface Skitter snapshot (slow).
// -workers caps GOMAXPROCS, the one bound on the pipeline's and the
// analysis kernels' parallelism (0 = leave it at one per CPU). Output
// is byte-identical for any value. -data writes every figure's
// data series as gnuplot-style .dat files. Progress — including the
// world's inventory and both collections' statistics — goes to stderr.
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
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"geonet/internal/core"
	"geonet/internal/geo"
	"geonet/internal/geoserve"
	"geonet/internal/population"
	"geonet/internal/rng"
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
	case "":
	default:
		return fail(stderr, 2, fmt.Errorf("unknown command %q (locate, topogen, or none to reproduce the paper)", cmd))
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
