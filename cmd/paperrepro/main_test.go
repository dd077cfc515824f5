package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/scenario"
)

func TestSelectExperiments(t *testing.T) {
	all := core.Experiments()
	for _, tc := range []struct {
		only    string
		want    []string
		wantErr string
	}{
		{only: "", want: nil},
		{only: "table1", want: []string{"table1"}},
		{only: "table1, figure10,table1", want: []string{"figure10", "table1"}},
		{only: "table9", wantErr: `unknown experiment id "table9"`},
		{only: "table1,bogus", wantErr: `unknown experiment id "bogus"`},
		{only: "table1,", wantErr: `unknown experiment id ""`},
		{only: "Table1", wantErr: `unknown experiment id "Table1"`},
	} {
		got, err := selectExperiments(tc.only, all)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-only %q: err = %v, want one containing %q", tc.only, err, tc.wantErr)
			} else if !strings.Contains(err.Error(), "table1, table2,") || !strings.Contains(err.Error(), "fractal") {
				t.Errorf("-only %q: error does not list the valid ids: %v", tc.only, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, tc.want) {
			t.Errorf("-only %q selects %v, want %v", tc.only, ids, tc.want)
		}
	}
}

// TestLocateMatchesServed pins that locate prints, for every address,
// exactly the body GET /v1/locate returns on the world's snapshot — so
// every location, method, radius and ASN is the served one — and that
// a malformed line goes to stderr with exit status 1.
func TestLocateMatchesServed(t *testing.T) {
	cfg := core.TestConfig()
	p, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Serve()
	if err != nil {
		t.Fatal(err)
	}
	h := geoserve.NewHandler(geoserve.NewEngine(snap))

	var addrs []string
	prefixes := snap.Prefixes()
	for i := 0; i < len(prefixes); i += 50 {
		addrs = append(addrs, geoserve.FormatIPv4(prefixes[i]+1))
	}
	addrs = append(addrs, geoserve.FormatIPv4(snap.ExactIPs()[0]), "240.0.0.1")
	input := strings.Join(addrs[:3], "\n") + "\nnot-an-address\n" + strings.Join(addrs[3:], "\n") + "\n"

	for _, mapper := range append([]string{""}, snap.Mappers()...) {
		t.Run("mapper="+mapper, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-seed", strconv.FormatInt(cfg.Seed, 10), "-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
				"-quiet", "locate", "-mapper", mapper}
			if code := run(args, strings.NewReader(input), &stdout, &stderr); code != 1 {
				t.Errorf("exit status %d with a malformed line, want 1", code)
			}
			if got := stderr.String(); got != "paperrepro: bad IPv4 address \"not-an-address\"\n" {
				t.Errorf("stderr %q, want the one malformed line reported", got)
			}
			lines := strings.SplitAfter(stdout.String(), "\n")
			lines = lines[:len(lines)-1]
			if len(lines) != len(addrs) {
				t.Fatalf("%d answer lines for %d addresses", len(lines), len(addrs))
			}
			for i, ip := range addrs {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/locate?ip="+ip+"&mapper="+mapper, nil))
				if w.Code != 200 || lines[i] != w.Body.String() {
					t.Errorf("locate %s:\n got  %q\n want %q (status %d)", ip, lines[i], w.Body.String(), w.Code)
				}
			}
		})
	}
}

// TestTopogen pins that a seed fixes the generated topology and that an
// unknown model or region is a usage error.
func TestTopogen(t *testing.T) {
	gen := func(args ...string) (string, int) {
		var stdout bytes.Buffer
		code := run(append([]string{"-seed", "3", "-quiet", "topogen"}, args...), nil, &stdout, io.Discard)
		return stdout.String(), code
	}
	for _, model := range []string{"waxman", "er", "ba", "geogen"} {
		a, code := gen("-model", model, "-n", "300")
		b, _ := gen("-model", model, "-n", "300")
		nodes, links := strings.Count(a, "\nN "), strings.Count(a, "\nL ")
		if code != 0 || a != b || nodes != 300 || links == 0 {
			t.Errorf("-model %s: exit %d, %d nodes, %d links, identical reruns %v", model, code, nodes, links, a == b)
		}
	}
	for _, args := range [][]string{{"-model", "bogus"}, {"-region", "Mars"}} {
		if _, code := gen(args...); code != 2 {
			t.Errorf("topogen %v: exit %d, want 2", args, code)
		}
	}
}

// TestNegativeWorkersIsUsageError pins that -workers, the GOMAXPROCS
// cap, refuses a negative value instead of silently ignoring it.
func TestNegativeWorkersIsUsageError(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-workers", "-1", "-list"}, nil, io.Discard, &stderr); code != 2 {
		t.Errorf("-workers -1: exit %d, want 2", code)
	}
	if got, want := stderr.String(), "paperrepro: -workers must be >= 0\n"; got != want {
		t.Errorf("-workers -1: stderr %q, want %q", got, want)
	}
}

// TestInvalidScaleIsUsageError pins that a -scale that is not finite
// and positive exits 2 before any world is built, instead of being
// replaced by a default (0, -1) or building an empty world (NaN).
func TestInvalidScaleIsUsageError(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "+Inf"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", scale, "-quiet", "-only", "table1"}, nil, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 {
			t.Errorf("-scale %s: exit %d with %d bytes of report, want exit 2 and none", scale, code, stdout.Len())
		}
		if !strings.Contains(stderr.String(), "scale must be finite and positive") {
			t.Errorf("-scale %s: stderr %q does not name the scale", scale, stderr.String())
		}
	}
}

// runSweep runs paperrepro quietly with args, which hold the sweep
// subcommand, adds -json, and decodes the report it prints.
func runSweep(t *testing.T, args ...string) (rep scenario.Report, code int, stderr string) {
	t.Helper()
	var stdout, errb bytes.Buffer
	code = run(append(append([]string{"-quiet"}, args...), "-json"), nil, &stdout, &errb)
	if code == 0 {
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			t.Fatalf("%v: report is not JSON: %v", args, err)
		}
	} else if stdout.Len() != 0 {
		t.Errorf("%v: exit %d with %d bytes of report", args, code, stdout.Len())
	}
	return rep, code, errb.String()
}

// labels lists the report's scenario labels in order.
func labels(rep scenario.Report) []string {
	out := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		out[i] = r.Label
	}
	return out
}

// TestSpecsFromFlagsMatrix pins how the axis flags expand into
// scenarios, that an omitted -seeds or -scales is the top-level -seed
// or -scale, and that every bad axis value is a usage error (exit 2)
// reported before any pipeline runs.
func TestSpecsFromFlagsMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    int    // expected scenario count (when wantErr == "")
		first   string // expected label of the first scenario, if set
		wantErr string // substring of the expected error
	}{
		{
			name: "seeds x scales",
			args: []string{"sweep", "-seeds", "1,2,3", "-scales", "0.01,0.02"},
			want: 6,
		},
		{
			name: "all axes",
			args: []string{"sweep", "-seeds", "1", "-scales", "0.01", "-monitors", "9,19",
				"-ascount", "1,2", "-extralinks", "0.55", "-distindep", "0.08",
				"-placement", "population,uniform"},
			want:  8,
			first: "seed1-scale0.01-mon9-asx1-xl0.55-di0.08",
		},
		{
			name: "whitespace tolerated",
			args: []string{"sweep", "-seeds", " 1 , 2 ", "-scales", "0.01"},
			want: 2,
		},
		{
			name:  "missing seeds",
			args:  []string{"-seed", "3", "sweep", "-scales", "0.01"},
			want:  1,
			first: "seed3-scale0.01",
		},
		{
			name:  "missing scales",
			args:  []string{"-scale", "0.01", "sweep", "-seeds", "1"},
			want:  1,
			first: "seed1-scale0.01",
		},
		{
			name:    "bad seed",
			args:    []string{"sweep", "-seeds", "1,x", "-scales", "0.02"},
			wantErr: `-seeds: bad value "x"`,
		},
		{
			name:    "bad scale",
			args:    []string{"sweep", "-seeds", "1", "-scales", "0.02,huge"},
			wantErr: `-scales: bad value "huge"`,
		},
		{
			name:    "bad monitor count",
			args:    []string{"sweep", "-seeds", "1", "-scales", "0.02", "-monitors", "9.5"},
			wantErr: `-monitors: bad value "9.5"`,
		},
		{
			name:    "bad AS count factor",
			args:    []string{"sweep", "-seeds", "1", "-scales", "0.02", "-ascount", "two"},
			wantErr: `-ascount: bad value "two"`,
		},
		{
			name:    "bad extra links",
			args:    []string{"sweep", "-seeds", "1", "-scales", "0.02", "-extralinks", "-"},
			wantErr: `-extralinks: bad value "-"`,
		},
		{
			name:    "bad dist-indep fraction",
			args:    []string{"sweep", "-seeds", "1", "-scales", "0.02", "-distindep", "8%"},
			wantErr: `-distindep: bad value "8%"`,
		},
		{
			name:    "unknown placement rejected by matrix",
			args:    []string{"sweep", "-seeds", "1", "-scales", "0.02", "-placement", "waxman"},
			wantErr: `unknown placement "waxman"`,
		},
		{
			name:    "duplicate axis value rejected by matrix",
			args:    []string{"sweep", "-seeds", "1,1", "-scales", "0.02"},
			wantErr: "duplicate",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, code, stderr := runSweep(t, c.args...)
			if c.wantErr != "" {
				if code != 2 || !strings.Contains(stderr, c.wantErr) {
					t.Fatalf("exit %d, stderr %q; want exit 2 and an error containing %q", code, stderr, c.wantErr)
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if len(rep.Results) != c.want {
				t.Fatalf("got %d scenarios %v, want %d", len(rep.Results), labels(rep), c.want)
			}
			if c.first != "" && rep.Results[0].Label != c.first {
				t.Fatalf("first scenario %q, want %q", rep.Results[0].Label, c.first)
			}
		})
	}
}

func TestSpecsFromFlagsAxisOrdering(t *testing.T) {
	rep, code, stderr := runSweep(t, "sweep", "-seeds", "1,2", "-scales", "0.01,0.02")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// Seeds vary slowest (the Matrix contract the sweep report relies
	// on for stable spec ordering).
	want := []string{"seed1-scale0.01", "seed1-scale0.02", "seed2-scale0.01", "seed2-scale0.02"}
	if got := labels(rep); !slices.Equal(got, want) {
		t.Fatalf("scenarios %v, want %v", got, want)
	}
}

// TestSpecFileWithAxisFlagsIsUsageError pins that -spec names the
// whole sweep: an axis flag beside it, valid or not, is refused rather
// than silently dropped.
func TestSpecFileWithAxisFlagsIsUsageError(t *testing.T) {
	path := writeFile(t, `{"seeds": [7], "scales": [0.01]}`)
	for _, axis := range [][]string{{"-seeds", "1"}, {"-monitors", "9"}, {"-placement", "uniform"}} {
		_, code, stderr := runSweep(t, append([]string{"sweep", "-spec", path}, axis...)...)
		if code != 2 || !strings.Contains(stderr, axis[0]+" cannot be given with it") {
			t.Errorf("-spec with %v: exit %d, stderr %q; want exit 2 naming %s", axis, code, stderr, axis[0])
		}
	}
}

func TestLoadSpecFileMatrixObject(t *testing.T) {
	path := writeFile(t, `{"seeds": [1, 2], "scales": [0.01], "monitors": [9, 19]}`)
	rep, code, stderr := runSweep(t, "sweep", "-spec", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(rep.Results))
	}
}

func TestLoadSpecFileBareArrayRoundTrip(t *testing.T) {
	orig := []scenario.Spec{
		{Seed: 1, Scale: 0.01},
		{Seed: 2, Scale: 0.01, Monitors: 9, UniformPlacement: true},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	rep, code, stderr := runSweep(t, "sweep", "-spec", writeFile(t, string(data)))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if len(rep.Results) != len(orig) {
		t.Fatalf("got %d scenarios, want %d", len(rep.Results), len(orig))
	}
	for i, res := range rep.Results {
		if got := res.Spec; got.Seed != orig[i].Seed || got.Scale != orig[i].Scale ||
			got.Monitors != orig[i].Monitors || got.UniformPlacement != orig[i].UniformPlacement {
			t.Fatalf("spec[%d] = %+v, want %+v", i, got, orig[i])
		}
	}
}

// TestLoadSpecFileErrors pins that a -spec file that cannot be read,
// parsed or expanded into a valid, duplicate-free spec list is a usage
// error (exit 2). A key neither form has, such as the typo "monitor",
// is one too, not a silently default axis.
func TestLoadSpecFileErrors(t *testing.T) {
	for _, c := range []struct{ name, path, wantErr string }{
		{"missing file", filepath.Join(t.TempDir(), "missing.json"), "no such file"},
		{"malformed matrix JSON", writeFile(t, `{"seeds": [1,`), "unexpected EOF"},
		{"malformed array JSON", writeFile(t, `[{"seed": 1,`), "unexpected EOF"},
		{"unknown matrix key", writeFile(t, `{"seeds": [1], "scales": [0.02], "monitor": [9]}`), `unknown field "monitor"`},
		{"unknown spec key", writeFile(t, `[{"seed": 1, "scale": 0.02, "monitor": 9}]`), `unknown field "monitor"`},
		{"data after the value", writeFile(t, `{"seeds": [1], "scales": [0.01]} {}`), "data after the JSON value"},
		// A matrix file without scales fails Matrix validation.
		{"matrix without scales", writeFile(t, `{"seeds": [1]}`), "at least one scale"},
		{"empty array", writeFile(t, `[]`), "empty sweep"},
		{"duplicate spec", writeFile(t, `[{"seed": 1, "scale": 0.01}, {"seed": 1, "scale": 0.01}]`), "duplicate spec"},
		{"invalid scale", writeFile(t, `[{"seed": 1, "scale": -1}]`), "scale must be finite and positive"},
	} {
		if _, code, stderr := runSweep(t, "sweep", "-spec", c.path); code != 2 || !strings.Contains(stderr, c.wantErr) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and %q", c.name, code, stderr, c.wantErr)
		}
	}
}

// TestSweepMatchesGoldenCorpus runs the sweep end to end and pins each
// scenario's digest and metrics to the scenario package's golden corpus.
func TestSweepMatchesGoldenCorpus(t *testing.T) {
	rep, code, stderr := runSweep(t, "sweep", "-seeds", "1,2", "-scales", "0.02")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got, want := labels(rep), []string{"seed1-scale0.02", "seed2-scale0.02"}; !slices.Equal(got, want) {
		t.Fatalf("scenarios %v, want %v", got, want)
	}
	for _, res := range rep.Results {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenario", "testdata", "golden", res.Label+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var want scenario.Result
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if res.Digest != want.Digest || res.Metrics != want.Metrics {
			t.Errorf("%s: digest %s metrics %+v, golden %s %+v", res.Label, res.Digest, res.Metrics, want.Digest, want.Metrics)
		}
	}
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
