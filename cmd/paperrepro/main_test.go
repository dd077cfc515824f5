package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geonet/internal/core"
	"geonet/internal/geoserve"
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
