package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestValidate is the table of flag sets geoserved accepts and
// refuses: every rejection with the exact message main exits on, and
// one accepted set per mode. Each row is parsed through the real flag
// declarations, so a changed default shows here too.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // "" = accepted
	}{
		{"builder", nil, ""},
		{"builder publishing under churn", []string{"-publish", "-churn", "-shards", "4"}, ""},
		{"builder cold start", []string{"-snapshot", "world.snap"}, ""},
		{"builder write and exit", []string{"-write-snapshot", "world.snap", "-addr", ""}, ""},
		{"replica", []string{"-replica-of", "http://builder:8080", "-shards", "2", "-queuebudget", "8"}, ""},
		{"router", []string{"-router", "http://r1:8081/, http://r2:8082"}, ""},
		{"replica with no listen address", []string{"-replica-of", "http://builder:8080", "-addr", ""}, ""},

		{"zero scale", []string{"-scale", "0"},
			"geoserved: -scale: core: generator config: netgen: scale must be finite and positive, got 0"},
		{"negative scale", []string{"-scale", "-1"},
			"geoserved: -scale: core: generator config: netgen: scale must be finite and positive, got -1"},
		{"NaN scale", []string{"-scale", "NaN"},
			"geoserved: -scale: core: generator config: netgen: scale must be finite and positive, got NaN"},
		{"infinite scale", []string{"-scale", "+Inf"},
			"geoserved: -scale: core: generator config: netgen: scale must be finite and positive, got +Inf"},
		{"negative workers", []string{"-workers", "-1"},
			"geoserved: -workers must be >= 0"},
		{"zero shards", []string{"-shards", "0"},
			"geoserved: -shards must be >= 1"},
		{"negative queue budget", []string{"-queuebudget", "-1"},
			"geoserved: -queuebudget must be >= 0 (0 = default)"},
		{"negative read-header timeout", []string{"-read-header-timeout", "-1s"},
			"geoserved: -read-header-timeout must be >= 0 (0 = unbounded)"},
		{"negative read timeout", []string{"-read-timeout", "-1s"},
			"geoserved: -read-timeout must be >= 0 (0 = unbounded)"},
		{"negative idle timeout", []string{"-idle-timeout", "-1s"},
			"geoserved: -idle-timeout must be >= 0 (0 = unbounded)"},
		{"zero drain timeout", []string{"-drain-timeout", "0s"},
			"geoserved: -drain-timeout must be positive"},
		{"negative drain timeout", []string{"-drain-timeout", "-5s"},
			"geoserved: -drain-timeout must be positive"},
		{"replica and router", []string{"-replica-of", "http://b", "-router", "http://r"},
			"geoserved: -replica-of and -router are mutually exclusive"},
		{"replica with -snapshot", []string{"-replica-of", "http://b", "-snapshot", "f"},
			"geoserved: snapshot/publish/churn flags only apply to builder mode"},
		{"replica with -write-snapshot", []string{"-replica-of", "http://b", "-write-snapshot", "f"},
			"geoserved: snapshot/publish/churn flags only apply to builder mode"},
		{"router with -publish", []string{"-router", "http://r", "-publish"},
			"geoserved: snapshot/publish/churn flags only apply to builder mode"},
		{"router with -churn", []string{"-router", "http://r", "-churn"},
			"geoserved: snapshot/publish/churn flags only apply to builder mode"},
		{"churn from a cold start", []string{"-churn", "-snapshot", "f"},
			"geoserved: -churn needs the pipeline's world; it cannot run from a -snapshot cold start"},
		{"churn with no interval", []string{"-churn", "-churn-interval", "0s"},
			"geoserved: -churn-interval must be positive"},
		{"sharded router", []string{"-router", "http://r", "-shards", "2"},
			"geoserved: -shards applies to builder and replica modes, not the router"},
		{"router over nothing", []string{"-router", " , "},
			"geoserved: -router needs at least one replica URL"},
		{"builder with nothing to do", []string{"-addr", ""},
			"geoserved: empty -addr without -write-snapshot serves nothing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("geoserved", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o := bindFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse %q: %v", tc.args, err)
			}
			got := ""
			if err := validate(o); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("validate(%q) = %q, want %q", tc.args, got, tc.want)
			}
		})
	}
}

func TestRouterURLs(t *testing.T) {
	got := routerURLs(" http://r1:8081/ ,,http://r2:8082 ")
	if len(got) != 2 || got[0] != "http://r1:8081" || got[1] != "http://r2:8082" {
		t.Errorf("routerURLs = %q", got)
	}
}

// TestRebuildRejectsInvalidScale pins that POST /v1/admin/rebuild
// answers 400 to a scale core.Run would refuse, and starts no build.
func TestRebuildRejectsInvalidScale(t *testing.T) {
	b := new(builder)
	h := b.rebuildHandler(&options{seed: 1, scale: 0.1})
	for _, scale := range []string{"NaN", "0", "-1", "Inf", "%2BInf", "x"} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/v1/admin/rebuild?scale="+scale, nil))
		if rec.Code != http.StatusBadRequest || b.rebuilding.Load() {
			t.Errorf("?scale=%s: status %d, rebuilding %v; want 400 and no build", scale, rec.Code, b.rebuilding.Load())
		}
	}
}
