package geoserve

// Tests of the striped serving counters: exact lookup and method counts
// under concurrent single lookups, batch folds, scrapes, hot swaps and
// an epoch carry-over, and a QPS ring that loses nothing at a second
// boundary.

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/geoloc"
	"geonet/internal/obs"
)

// scrapeSums scrapes h's /metrics and, for each named sample (a family
// name, or a histogram's name_count), sums its series.
func scrapeSums(t *testing.T, h http.Handler, names ...string) []uint64 {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Errorf("metrics scrape status %d", w.Code)
	}
	sums := make([]uint64, len(names))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		for i, name := range names {
			rest, ok := strings.CutPrefix(line, name)
			if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				t.Errorf("unparsable sample %q: %v", line, err)
			}
			sums[i] += uint64(v)
		}
	}
	return sums
}

// TestLookupCountsExact runs G goroutines × N single lookups (Lookup
// and the JSON locate path, by name and by default, by turns), a wire
// batch every 64th lookup, concurrent /metrics scrapes, hot swaps and
// one carry-over to a replacement cluster, over one shard and four.
// The counters must come out exact — in total, by method, and per shard
// range (each lookup, single or in a batch, on the range owning its
// address) — and the sampled latency histogram may trail them by less
// than one sample period per stripe. Run under -race in CI.
func TestLookupCountsExact(t *testing.T) {
	const (
		goroutines = 8
		perG       = 4000
		batchEvery = 64
		batchLen   = 37
	)
	snapA := syntheticSnapshot(0x0A000000, 96, 2, 0)
	snapB := syntheticSnapshot(0x0A000000, 96, 2, 0.5)
	probes := probeAddrs(snapA)

	// "engine" is the 1-shard cluster NewEngine returns.
	cases := []struct {
		name   string
		shards int
		start  func() *Cluster
	}{
		{name: "engine", shards: 1, start: func() *Cluster { return NewEngine(snapA) }},
		{name: "cluster4", shards: 4, start: func() *Cluster {
			c, err := NewCluster(snapA, ClusterConfig{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewObservability(tc.name)
			var (
				cur     atomic.Pointer[Cluster]
				handler atomic.Pointer[http.Handler]
			)
			install := func(c *Cluster) {
				h := NewObservedHandler(c, o)
				cur.Store(c)
				handler.Store(&h)
			}
			install(tc.start())
			// One collector for the run, as a replica registers: it
			// follows whichever cluster is current.
			o.Metrics.Collect(func(e *obs.Emitter) { cur.Load().Collect(e) })
			// snapA and snapB share one index, so every epoch here cuts
			// the shard ranges at the same addresses.
			starts := cur.Load().view.Load().starts

			var (
				workers   sync.WaitGroup
				batched   atomic.Uint64
				wantShard = make([]atomic.Uint64, tc.shards)
			)
			for g := 0; g < goroutines; g++ {
				workers.Add(1)
				go func(g int) {
					defer workers.Done()
					out := make([]byte, batchLen*WireAnswerSize)
					for i := 0; i < perG; i++ {
						if g == 0 && i == perG/2 {
							// Mid-run, carry the accounting over to a
							// replacement cluster, as a replica
							// installing an epoch does.
							next, err := NewClusterFrom(snapB, ClusterConfig{Shards: tc.shards}, cur.Load())
							if err != nil {
								t.Error(err)
								return
							}
							install(next)
						}
						b := cur.Load()
						ip := probes[(g*perG+i)%len(probes)]
						wantShard[shardIndexOf(starts, ip)].Add(1)
						switch i % 3 {
						case 0:
							b.Lookup(i&1, ip)
						case 1:
							if _, _, _, ok := b.locate("m1", ip); !ok {
								t.Error("locate: mapper m1 unknown")
							}
						default:
							if _, _, _, ok := b.locate("", ip); !ok {
								t.Error("locate: default mapper unknown")
							}
						}
						if i%batchEvery == 0 {
							ips := probes[i%(len(probes)-batchLen):][:batchLen]
							if _, _, ok, err := b.serveWire(uint16(i&1), ips, out, nil); !ok || err != nil {
								t.Errorf("serveWire: ok=%v err=%v", ok, err)
							}
							batched.Add(batchLen)
							for _, ip := range ips {
								wantShard[shardIndexOf(starts, ip)].Add(1)
							}
						}
					}
				}(g)
			}

			// Beside the workers: scrape and hot-swap.
			stop := make(chan struct{})
			var side sync.WaitGroup
			side.Add(1)
			go func() {
				defer side.Done()
				var last uint64
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					s := scrapeSums(t, *handler.Load(), "geoserve_lookup_latency_seconds_count", "geoserve_lookups_total", "geoserve_requests_total")
					// Families render in name order, so the total is read last.
					if s[0] > s[2] || s[1] > s[2] || s[2] < last {
						t.Errorf("scrape %d: latency count %d, attributed %d, total %d (previous total %d)", round, s[0], s[1], s[2], last)
					}
					last = s[2]
					next := snapA
					if round%2 == 0 {
						next = snapB
					}
					if _, err := cur.Load().Swap(next); err != nil {
						t.Error(err)
					}
				}
			}()
			workers.Wait()
			close(stop)
			side.Wait()

			want := uint64(goroutines*perG) + batched.Load()
			s := scrapeSums(t, *handler.Load(), "geoserve_requests_total", "geoserve_lookups_total", "geoserve_lookup_latency_seconds_count")
			total, attributed, timed := s[0], s[1], s[2]
			if total != want {
				t.Errorf("geoserve_requests_total = %d, want exactly %d", total, want)
			}
			if attributed != total {
				t.Errorf("geoserve_lookups_total sums to %d, geoserve_requests_total is %d", attributed, total)
			}
			if slack := uint64(samplePeriod * tc.shards * numStripes); timed > total || total-timed >= slack {
				t.Errorf("latency _count = %d, want within %d below %d", timed, slack, total)
			}
			var series []string
			for i := range wantShard {
				series = append(series, `geoserve_shard_lookups_total{shard="`+strconv.Itoa(i)+`"}`)
			}
			for i, got := range scrapeSums(t, *handler.Load(), series...) {
				if want := wantShard[i].Load(); got != want {
					t.Errorf("%s = %d, want exactly %d", series[i], got, want)
				}
			}
		})
	}
}

// TestRingAddSecondBoundary walks a fake clock through the ring's
// seconds with the goroutines held in step, so every cell's restart for
// a new second races the other goroutines' adds to that second. Every
// add must land. (The split second/count cell this replaces lost one
// or more in about one lap of fifty.)
func TestRingAddSecondBoundary(t *testing.T) {
	const (
		goroutines = 4
		seconds    = ringSeconds - 2
		adds       = 3
		laps       = 500
		first      = 1_700_000_000
	)
	for lap := 0; lap < laps; lap++ {
		var (
			m       metrics
			arrived atomic.Int64
			wg      sync.WaitGroup
		)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := 0; s < seconds; s++ {
					arrived.Add(1)
					for arrived.Load() < int64(goroutines*(s+1)) {
						runtime.Gosched()
					}
					for i := 0; i < adds; i++ {
						m.ringAdd(time.Unix(int64(first+s), 0), 1)
					}
				}
			}()
		}
		wg.Wait()
		want := float64(goroutines * adds)
		if got := m.windowQPS(time.Unix(first+seconds, 0), seconds); got != want {
			t.Fatalf("lap %d: ring averages %v lookups a second over its %d seconds, want %v", lap, got, seconds, want)
		}
	}
}

// TestMethodCodesMatchGeoloc pins the stored method codes to geoloc's
// method names in both directions: methodNames must stay aligned with
// the method constants, or a record would decode to another method.
func TestMethodCodesMatchGeoloc(t *testing.T) {
	for _, c := range []struct {
		code method
		name string
	}{
		{methodNone, ""},
		{methodFeed, geoloc.MethodFeed},
		{methodHostname, geoloc.MethodHostname},
		{methodLOC, geoloc.MethodLOC},
		{methodWhois, geoloc.MethodWhois},
	} {
		if got := methodNames[c.code]; got != c.name {
			t.Errorf("methodNames[%d] = %q, want %q", c.code, got, c.name)
		}
		if got, ok := methodCode(c.name); !ok || got != c.code {
			t.Errorf("methodCode(%q) = %d, %v; want %d", c.name, got, ok, c.code)
		}
	}
}
