package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geonet/internal/scenario"
)

func TestSpecsFromFlagsMatrix(t *testing.T) {
	cases := []struct {
		name    string
		flags   axisFlags
		want    int    // expected spec count (when wantErr == "")
		wantErr string // substring of the expected error
	}{
		{
			name:  "seeds x scales",
			flags: axisFlags{Seeds: "1,2,3", Scales: "0.02,0.05"},
			want:  6,
		},
		{
			name: "all axes",
			flags: axisFlags{Seeds: "1", Scales: "0.02", Monitors: "9,19",
				ASCount: "1,2", ExtraLinks: "0.55", DistIndep: "0.08",
				Placement: "population,uniform"},
			want: 8,
		},
		{
			name:  "whitespace tolerated",
			flags: axisFlags{Seeds: " 1 , 2 ", Scales: "0.02"},
			want:  2,
		},
		{
			name:    "missing seeds",
			flags:   axisFlags{Scales: "0.02"},
			wantErr: "need -seeds and -scales",
		},
		{
			name:    "missing scales",
			flags:   axisFlags{Seeds: "1"},
			wantErr: "need -seeds and -scales",
		},
		{
			name:    "bad seed",
			flags:   axisFlags{Seeds: "1,x", Scales: "0.02"},
			wantErr: `-seeds: bad value "x"`,
		},
		{
			name:    "bad scale",
			flags:   axisFlags{Seeds: "1", Scales: "0.02,huge"},
			wantErr: `-scales: bad value "huge"`,
		},
		{
			name:    "bad monitor count",
			flags:   axisFlags{Seeds: "1", Scales: "0.02", Monitors: "9.5"},
			wantErr: `-monitors: bad value "9.5"`,
		},
		{
			name:    "bad AS count factor",
			flags:   axisFlags{Seeds: "1", Scales: "0.02", ASCount: "two"},
			wantErr: `-ascount: bad value "two"`,
		},
		{
			name:    "bad extra links",
			flags:   axisFlags{Seeds: "1", Scales: "0.02", ExtraLinks: "-"},
			wantErr: `-extralinks: bad value "-"`,
		},
		{
			name:    "bad dist-indep fraction",
			flags:   axisFlags{Seeds: "1", Scales: "0.02", DistIndep: "8%"},
			wantErr: `-distindep: bad value "8%"`,
		},
		{
			name:    "unknown placement rejected by matrix",
			flags:   axisFlags{Seeds: "1", Scales: "0.02", Placement: "waxman"},
			wantErr: "placement",
		},
		{
			name:    "duplicate axis value rejected by matrix",
			flags:   axisFlags{Seeds: "1,1", Scales: "0.02"},
			wantErr: "duplicate",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			specs, err := specsFromFlags("", c.flags)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("got %d specs, want error containing %q", len(specs), c.wantErr)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %q does not contain %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(specs) != c.want {
				t.Fatalf("got %d specs, want %d", len(specs), c.want)
			}
		})
	}
}

func TestSpecsFromFlagsAxisOrdering(t *testing.T) {
	specs, err := specsFromFlags("", axisFlags{Seeds: "1,2", Scales: "0.02,0.05"})
	if err != nil {
		t.Fatal(err)
	}
	// Seeds vary slowest (the Matrix contract the sweep report relies
	// on for stable spec ordering).
	want := []struct {
		seed  int64
		scale float64
	}{{1, 0.02}, {1, 0.05}, {2, 0.02}, {2, 0.05}}
	for i, w := range want {
		if specs[i].Seed != w.seed || specs[i].Scale != w.scale {
			t.Fatalf("spec[%d] = seed%d/scale%g, want seed%d/scale%g",
				i, specs[i].Seed, specs[i].Scale, w.seed, w.scale)
		}
	}
}

func TestSpecsFromFlagsSpecFileTakesPrecedence(t *testing.T) {
	path := writeFile(t, `{"seeds": [7], "scales": [0.02]}`)
	// Axis flags (even invalid ones) are ignored when -spec is given.
	specs, err := specsFromFlags(path, axisFlags{Seeds: "junk"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Seed != 7 {
		t.Fatalf("unexpected specs %+v", specs)
	}
}

func TestLoadSpecFileMatrixObject(t *testing.T) {
	path := writeFile(t, `{"seeds": [1, 2], "scales": [0.02], "monitors": [9, 19]}`)
	specs, err := loadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
}

func TestLoadSpecFileBareArrayRoundTrip(t *testing.T) {
	orig := []scenario.Spec{
		{Seed: 1, Scale: 0.02},
		{Seed: 2, Scale: 0.05, Monitors: 9, UniformPlacement: true},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, string(data))
	got, err := loadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("got %d specs, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].Seed != orig[i].Seed || got[i].Scale != orig[i].Scale ||
			got[i].Monitors != orig[i].Monitors ||
			got[i].UniformPlacement != orig[i].UniformPlacement {
			t.Fatalf("spec[%d] = %+v, want %+v", i, got[i], orig[i])
		}
	}
}

func TestLoadSpecFileErrors(t *testing.T) {
	if _, err := loadSpecFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	if _, err := loadSpecFile(writeFile(t, `{"seeds": [1,`)); err == nil {
		t.Error("malformed matrix JSON should error")
	}
	if _, err := loadSpecFile(writeFile(t, `[{"seed": 1,`)); err == nil {
		t.Error("malformed array JSON should error")
	}
	// A matrix file without scales fails Matrix validation.
	if _, err := loadSpecFile(writeFile(t, `{"seeds": [1]}`)); err == nil {
		t.Error("matrix without scales should error")
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
