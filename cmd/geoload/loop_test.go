package main

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/analysis"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/replica"
)

// testSnapshot is a 16-prefix world where every other /24 has an
// answer, under mapper "ixmapper".
func testSnapshot(t *testing.T) *geoserve.Snapshot {
	t.Helper()
	tb := geoserve.Tables{
		Build:      geoserve.BuildInfo{Seed: 1, Scale: 0.5, Label: "geoload-test"},
		Mappers:    []string{"ixmapper"},
		Footprints: [][]analysis.ASFootprint{nil},
	}
	const rows = 16
	slab := make([]byte, rows*geoserve.RecordSize)
	for i := 0; i < rows; i++ {
		tb.Prefixes = append(tb.Prefixes, 0x0A000000+uint32(i)<<8)
		a := geoserve.Answer{}
		if i%2 == 0 {
			a = geoserve.Answer{Found: true, Method: "hostname", RadiusMi: 10}
		}
		if err := geoserve.PutRecord(slab[i*geoserve.RecordSize:], a); err != nil {
			t.Fatal(err)
		}
	}
	tb.Records = [][]byte{slab}
	snap, err := geoserve.FromTables(tb)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// node starts one fleet member answering under the given epoch; an
// empty epoch is a member that refuses everything with 503 +
// Retry-After: 1.
func node(t *testing.T, h http.Handler, epoch string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if epoch == "" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Geo-Epoch", epoch)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestLoopOverFleet drives the one loop exactly as main does —
// bootstrap, one target per URL, run, text and JSON — against one node,
// against two where the first throttles, and against two on different
// epochs, over both request encodings a router also serves.
func TestLoopOverFleet(t *testing.T) {
	snap := testSnapshot(t)
	h := geoserve.NewHandler(geoserve.NewEngine(snap))
	cases := []struct {
		name   string
		epochs []string // per node; "" = always 503 + Retry-After
		check  func(t *testing.T, rep *report, slept uint64)
	}{
		{"one target", []string{"1"}, func(t *testing.T, rep *report, slept uint64) {
			if tot := rep.Total; tot.Retries != 0 || tot.Throttled != 0 || slept != 0 {
				t.Errorf("a healthy single target needed retries or back-off: %+v, %d sleeps", tot, slept)
			}
			if got := rep.Targets[0]; !maps.Equal(got.Epochs, map[string]uint64{"1": got.Lookups}) {
				t.Errorf("epoch buckets %v, want every one of %d answers under epoch 1", got.Epochs, got.Lookups)
			}
		}},
		{"first target throttles", []string{"", "1"}, func(t *testing.T, rep *report, slept uint64) {
			a, b, tot := rep.Targets[0], rep.Targets[1], rep.Total
			if a.Lookups == 0 || a.Errors != a.Lookups || a.Retries != a.Lookups || a.Throttled != a.Lookups || len(a.Epochs) != 0 {
				t.Errorf("throttling target's row %+v: want every lookup an error, failed over and throttled", a)
			}
			if slept*uint64(rep.Batch) != a.Throttled {
				t.Errorf("%d sleeps of batch %d for %d throttled lookups", slept, rep.Batch, a.Throttled)
			}
			if b.Lookups != tot.Lookups || b.Errors != 0 || tot.Retries != a.Retries || tot.Throttled != a.Throttled {
				t.Errorf("rows do not add up: total %+v, healthy target %+v", tot, b)
			}
		}},
		{"targets on two epochs", []string{"1", "2"}, func(t *testing.T, rep *report, slept uint64) {
			for i, want := range []string{"1", "2"} {
				if got := rep.Targets[i]; got.Lookups == 0 || !maps.Equal(got.Epochs, map[string]uint64{want: got.Lookups}) {
					t.Errorf("target %d epoch buckets %v over %d lookups, want all under epoch %s", i, got.Epochs, got.Lookups, want)
				}
			}
			want := map[string]uint64{"1": rep.Targets[0].Lookups, "2": rep.Targets[1].Lookups}
			if !maps.Equal(rep.Total.Epochs, want) {
				t.Errorf("run-level epoch buckets %v, want %v", rep.Total.Epochs, want)
			}
		}},
	}
	// shape is the report's shape: the JSON document's keys, which must
	// not depend on how many targets there are.
	var shape []string
	for _, wire := range []string{"json", "bin"} {
		for _, tc := range cases {
			t.Run(wire+"/"+tc.name, func(t *testing.T) {
				var urls []string
				for _, e := range tc.epochs {
					urls = append(urls, node(t, h, e))
				}
				client := &http.Client{}
				prefixes, served, err := bootstrap(client, urls)
				if err != nil {
					t.Fatal(err)
				}
				var slept atomic.Uint64
				l := &loop{
					urls: urls, prefixes: prefixes, mix: mixUniform, loadSeed: 1,
					concurrency: 2, batch: 1, duration: 100 * time.Millisecond,
					sleep: func(d time.Duration) {
						if d != time.Second {
							t.Errorf("backed off %s for Retry-After: 1", d)
						}
						slept.Add(1)
					},
				}
				var mapperID uint16
				if wire == "bin" {
					l.batch = 8
					if mapperID, err = served.wireID("ixmapper"); err != nil {
						t.Fatal(err)
					}
				}
				for _, u := range urls {
					l.targets = append(l.targets, newTarget(wire, client, u, "ixmapper", mapperID))
				}
				rep := l.run()
				rep.Wire, rep.Mapper, rep.WorldScale = wire, "ixmapper", served.Snapshot.Build.Scale

				tot := rep.Total
				if tot.Lookups == 0 || tot.Errors != 0 || rep.WorldScale != 0.5 {
					t.Fatalf("run-level row %+v at world scale %v: want lookups, no errors, scale 0.5", tot, rep.WorldScale)
				}
				if tot.Found == 0 || tot.Found == tot.Lookups {
					t.Errorf("found %d of %d: the test world answers every other /24", tot.Found, tot.Lookups)
				}
				if len(rep.Targets) != len(urls) {
					t.Fatalf("%d target rows for %d targets", len(rep.Targets), len(urls))
				}
				var sum uint64
				for _, row := range rep.Targets {
					sum += row.Lookups - row.Retries
				}
				if sum != tot.Lookups {
					t.Errorf("target rows account for %d lookups, the run for %d", sum, tot.Lookups)
				}
				tc.check(t, rep, slept.Load())

				// Text: the header, then two lines for the run and two
				// per target.
				text := rep.text()
				lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
				if len(lines) != 3+2*len(urls) || !strings.HasPrefix(lines[0], "geoload: wire="+wire+" targets=") {
					t.Errorf("text report has %d lines for %d targets:\n%s", len(lines), len(urls), text)
				}
				for i, u := range urls {
					if !strings.HasPrefix(lines[3+2*i], "  "+u+" ") {
						t.Errorf("line %d is not target %s's row:\n%s", 3+2*i, u, text)
					}
				}

				path := filepath.Join(t.TempDir(), "run.json")
				if err := rep.writeJSON(path); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]any
				if err := json.Unmarshal(b, &doc); err != nil {
					t.Fatalf("-json document: %v\n%s", err, b)
				}
				keys := slices.Sorted(maps.Keys(doc))
				for _, k := range slices.Sorted(maps.Keys(doc["total"].(map[string]any))) {
					keys = append(keys, "total."+k)
				}
				for _, k := range slices.Sorted(maps.Keys(doc["targets"].([]any)[0].(map[string]any))) {
					keys = append(keys, "targets."+k)
				}
				if shape == nil {
					shape = keys
				}
				if !slices.Equal(keys, shape) {
					t.Errorf("document shape differs between runs:\n%v\nvs\n%v", keys, shape)
				}
				if _, old := doc["benchmarks"]; old || len(doc["targets"].([]any)) != len(urls) {
					t.Errorf("document has a benchmarks key or the wrong number of target rows:\n%s", b)
				}
			})
		}
	}

	// Through a real router over real replicas, run as main runs it:
	// with the default -mapper, both encodings answer every lookup (a
	// router's /healthz lists no mappers to resolve a name against).
	routerURL := testRouter(t, snap)
	for _, wire := range []string{"json", "bin"} {
		t.Run(wire+"/through a router", func(t *testing.T) {
			var out strings.Builder
			args := []string{"-target", routerURL, "-wire", wire, "-wirebatch", "8", "-concurrency", "2", "-duration", "100ms"}
			if err := run(args, &out); err != nil {
				t.Fatalf("geoload %v: %v\n%s", args, err, out.String())
			}
			if !strings.Contains(out.String(), " errors=0 ") {
				t.Errorf("lookups failed through the router:\n%s", out.String())
			}
		})
	}
}

// testRouter publishes snap to two replicas behind a router and returns
// the router's URL once it plans on them.
func testRouter(t *testing.T, snap *geoserve.Snapshot) string {
	t.Helper()
	pub := replica.NewPublisher()
	if _, err := pub.Publish(snap); err != nil {
		t.Fatal(err)
	}
	builder := httptest.NewServer(pub.Handler())
	t.Cleanup(builder.Close)
	var urls []string
	for range 2 {
		r := replica.New(replica.Config{BuilderURL: builder.URL, WarmupProbes: -1})
		if _, err := r.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(r.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	router := replica.NewRouter(replica.RouterConfig{Replicas: urls})
	router.ProbeOnce(context.Background())
	srv := httptest.NewServer(router.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// fixedTarget answers every round trip the same way, at once.
type fixedTarget struct {
	rep reply
	err error
}

func (f fixedTarget) lookup([]uint32) (reply, error) { return f.rep, f.err }

// TestBackOffIsNotLatency pins that the time a worker spends honoring a
// Retry-After is the client's own and stays out of the run's latency: a
// request's latency is the sum of its attempts.
func TestBackOffIsNotLatency(t *testing.T) {
	const backOff = 20 * time.Millisecond
	var slept atomic.Uint64
	l := &loop{
		urls: []string{"throttling", "healthy"},
		targets: []target{
			fixedTarget{reply{retryAfter: time.Second}, http.ErrHandlerTimeout},
			fixedTarget{reply{found: 1, epoch: "1"}, nil},
		},
		prefixes: testPrefixes(), mix: mixUniform, loadSeed: 1,
		concurrency: 1, batch: 1, duration: 10 * backOff,
		sleep: func(time.Duration) {
			slept.Add(1)
			time.Sleep(backOff)
		},
	}
	rep := l.run()
	if n := slept.Load(); n == 0 || n != rep.Total.Throttled || rep.Total.Errors != 0 {
		t.Fatalf("%d back-offs for run-level row %+v: want every request throttled once, then answered", n, rep.Total)
	}
	// Both attempts return at once, so only the back-off could put a
	// median request anywhere near backOff.
	if p50 := time.Duration(rep.Total.LatencyP50Ns); p50 >= backOff/2 {
		t.Errorf("run-level p50 %s includes the %s the client slept", p50, backOff)
	}
}
