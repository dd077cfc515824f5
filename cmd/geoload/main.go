// Command geoload is a closed-loop load generator for a running
// geoserve fleet: N workers each issue one round trip, wait for the
// answer, and immediately issue the next, so measured throughput is the
// service's sustainable rate at that concurrency (not an open-loop
// arrival fantasy). It is only a URL-driven client; the repo's
// benchmark, its in-process rungs and its -compare live in bench/.
//
//	geoload -target http://localhost:8080 -mix unmappable -duration 10s
//	geoload -target http://r1:8081,http://r2:8082 -mix zipf -duration 10s
//
// -target names one or more base URLs (a geoserved, geoserved
// -replica-of nodes, a -router). Workers pin to home targets
// round-robin; with more than one target a failed round trip fails over
// once to the next, and a Retry-After on a 429/503 is honored (capped
// at 2s) instead of hammering an overloaded or draining member. One
// target or five, the report is the same: a run-level row and one row
// per target, each with QPS, errors, retries, honored throttles,
// p50/p90/p99 latency, the latency histogram and the observed
// X-Geo-Epoch of every answer. -json writes the same report as one
// JSON document. The exit status is 1 if any lookup failed for good.
//
// Address mixes, drawn over the /24 index the first target that answers
// serves at /v1/prefixes, so the mix matches whatever world is served:
//
//	uniform     addresses uniform over the allocated /24 index
//	zipf        /24s drawn rank-Zipf (theta -zipftheta), hot-prefix skew
//	unmappable  half uniform, half guaranteed-miss (class E) addresses
//
// -wire selects the request encoding: json issues one GET /v1/locate
// per lookup; bin posts length-prefixed binary batches of -wirebatch
// addresses to /v1/locate/bin; stream holds one full-duplex
// /v1/locate/stream session per connection and ping-pongs
// -wirebatch-address chunks against epoch-tagged answer frames. The
// binary modes measure the server past the JSON wall — same answers
// (the wire golden pins byte-equivalence), a fraction of the cost.
//
// With -churn-every D the run additionally fires one POST
// /v1/admin/churn at the first target every D, so the measured QPS is
// the service's sustained rate while it continuously delta-compiles and
// hot-swaps new epochs underneath the load; the report counts the
// steps the world moved through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"geonet/internal/geoserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command over args; any error, including lookups
// that failed for good, makes the exit status 1.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("geoload", flag.ExitOnError)
	targets := fs.String("target", "", "comma-separated base URLs of the geoserved nodes to drive")
	mapper := fs.String("mapper", "", "mapper to query (default: the served snapshot's first)")
	concurrency := fs.Int("concurrency", 4, "closed-loop workers")
	duration := fs.Duration("duration", 5*time.Second, "measurement duration")
	mixName := fs.String("mix", "uniform", "address mix: uniform, zipf or unmappable")
	zipfTheta := fs.Float64("zipftheta", 1.2, "Zipf exponent for -mix zipf")
	loadSeed := fs.Int64("loadseed", 1, "seed for the address draw streams")
	jsonOut := fs.String("json", "", "write the run as JSON to this file ('-' = stdout)")
	wire := fs.String("wire", "json", "request encoding: json (GET /v1/locate), bin (binary batches to /v1/locate/bin) or stream (full-duplex /v1/locate/stream)")
	wireBatch := fs.Int("wirebatch", 256, "addresses per binary batch or stream chunk (-wire bin|stream)")
	churnEvery := fs.Duration("churn-every", 0, "fire POST /v1/admin/churn on the first target at this interval during the run (0 = off), measuring sustained QPS through continuous rebuilds")
	fs.Parse(args)

	mix, err := parseMix(*mixName)
	if err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*targets, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	switch {
	case len(urls) == 0:
		return fmt.Errorf("-target names no URL (the in-process rungs are bench/'s: go run -C bench . -workload inproc-lookup)")
	case *concurrency < 1:
		return fmt.Errorf("-concurrency must be >= 1")
	case !slices.Contains([]string{"json", "bin", "stream"}, *wire):
		return fmt.Errorf("unknown -wire %q (json, bin or stream)", *wire)
	case *wireBatch < 1 || *wireBatch > geoserve.MaxBatch:
		return fmt.Errorf("-wirebatch must be in [1, %d]", geoserve.MaxBatch)
	case *churnEvery < 0:
		return fmt.Errorf("-churn-every must be >= 0")
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}}
	prefixes, served, err := bootstrap(client, urls)
	if err != nil {
		return err
	}
	l := &loop{
		urls: urls, prefixes: prefixes, mix: mix, theta: *zipfTheta, loadSeed: *loadSeed,
		concurrency: *concurrency, batch: 1, duration: *duration, sleep: time.Sleep,
	}
	var mapperID uint16
	if *wire != "json" {
		l.batch = *wireBatch
		if mapperID, err = served.wireID(*mapper); err != nil {
			return err
		}
	}
	for _, u := range urls {
		l.targets = append(l.targets, newTarget(*wire, client, u, *mapper, mapperID))
	}

	// With -churn-every the run measures sustained throughput while the
	// server continuously rebuilds: a side goroutine fires one churn
	// step per interval for the whole window.
	var steps, failed uint64
	stop, done := make(chan struct{}), make(chan struct{})
	if *churnEvery > 0 {
		go func() {
			defer close(done)
			steps, failed = churn(urls[0], *churnEvery, stop)
		}()
	} else {
		close(done)
	}
	rep := l.run()
	close(stop)
	<-done

	rep.Date = time.Now().UTC().Format(time.RFC3339)
	rep.GOMAXPROCS, rep.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	rep.WorldScale, rep.Wire, rep.Mapper = served.Snapshot.Build.Scale, *wire, *mapper
	rep.ChurnEveryNs, rep.ChurnSteps, rep.ChurnFailed = int64(*churnEvery), steps, failed
	fmt.Fprint(stdout, rep.text())
	if *jsonOut != "" {
		if err := rep.writeJSON(*jsonOut); err != nil {
			return err
		}
	}
	if rep.Total.Errors > 0 {
		return fmt.Errorf("%d lookups failed", rep.Total.Errors)
	}
	return nil
}

// fetchJSON decodes a 200 reply to GET url into v.
func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// healthz is what geoload reads of a node's /healthz: the served
// world's scale, so -json documents compare like for like, and the
// mapper list that numbers the wire ids. A router's has neither.
type healthz struct {
	Snapshot geoserve.SnapshotInfo `json:"snapshot"`
}

// wireID resolves a mapper name to its wire id: its index in the served
// snapshot's mapper list. The empty name is WireMapperDefault (the
// first mapper) and needs no list, so it is the one that works through
// a router.
func (h *healthz) wireID(mapper string) (uint16, error) {
	if mapper == "" {
		return geoserve.WireMapperDefault, nil
	}
	i := slices.Index(h.Snapshot.Mappers, mapper)
	if i < 0 {
		return 0, fmt.Errorf("unknown mapper %q (server has %v)", mapper, h.Snapshot.Mappers)
	}
	return uint16(i), nil
}

// bootstrap reads the /24 index and /healthz from the first target that
// answers — every node at one epoch serves the same index.
func bootstrap(client *http.Client, urls []string) (prefixes []uint32, served healthz, err error) {
	for _, u := range urls {
		if prefixes, err = fetchPrefixes(client, u); err == nil {
			err = fetchJSON(client, u+"/healthz", &served)
			break
		}
	}
	if err == nil && len(prefixes) == 0 {
		err = fmt.Errorf("empty /24 index")
	}
	return prefixes, served, err
}

func fetchPrefixes(client *http.Client, base string) ([]uint32, error) {
	var body struct {
		Prefixes []string `json:"prefixes"`
	}
	if err := fetchJSON(client, base+"/v1/prefixes", &body); err != nil {
		return nil, err
	}
	out := make([]uint32, 0, len(body.Prefixes))
	for _, p := range body.Prefixes {
		ip, err := geoserve.ParseIPv4(strings.TrimSuffix(p, "/24"))
		if err != nil {
			return nil, err
		}
		out = append(out, ip)
	}
	return out, nil
}

// churn fires one POST /v1/admin/churn at base every interval until
// stop closes, and reports how many steps the target took and refused.
func churn(base string, every time.Duration, stop <-chan struct{}) (steps, failed uint64) {
	client := &http.Client{}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return steps, failed
		case <-tick.C:
			resp, err := client.Post(base+"/v1/admin/churn", "application/json", nil)
			if err != nil {
				failed++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				steps++
			} else {
				failed++
			}
		}
	}
}
