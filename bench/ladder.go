package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/obs"
)

// nullWriter is the http.ResponseWriter of the handler rungs: it counts
// bytes and, when keep is set, keeps them.
type nullWriter struct {
	h      http.Header
	status int
	n      int
	keep   *bytes.Buffer
}

func newNullWriter() *nullWriter { return &nullWriter{h: http.Header{}} }

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.keep != nil {
		w.keep.Write(p)
	}
	return len(p), nil
}

// rewindBody is a request body that can be refilled, so one request
// value serves every call of a handler rung.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// spin calls fn on g goroutines for about d and returns the wall-clock
// nanoseconds per operation, ops being done per call: with g > 1 it is
// the inverse of the aggregate rate, not one caller's latency.
func spin(d time.Duration, g, ops int, fn func(g, i int)) float64 {
	var (
		wg    sync.WaitGroup
		calls atomic.Int64
	)
	// A clock read per call would show in a call of one short operation.
	every := 1
	if ops < 256 {
		every = 32
	}
	t0 := time.Now()
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for i%every != 0 || time.Since(t0) < d {
				fn(gi, i)
				i++
			}
			calls.Add(int64(i))
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(calls.Load()*int64(ops))
}

// sink keeps the compiler from discarding the lookups a rung times.
var sink int

// ladder measures every request-path rung from outside, on the same
// snapshot and the same address pool, rung seconds each, and the
// build-path calls the epoch steps do not already time. Each rung is
// one span of one trace.
type ladder struct {
	e        *env
	rung     time.Duration
	deadline time.Time // of every connection the ladder opens
	tr       *tracer
	trace    uint64
	layers   bag
	pools    [2][]uint32
}

// rungCount is how many timed rungs share the ladder's budget.
const rungCount = 23

func runLadder(e *env, seed int64, budget time.Duration, tr *tracer, layers bag) error {
	l := &ladder{e: e, rung: budget / rungCount, deadline: time.Now().Add(budget + time.Minute),
		tr: tr, trace: tr.newID(), layers: layers}
	prefixes := e.snap.Prefixes()
	for g := range l.pools {
		// Streams apart from the window's clients', same distribution.
		l.pools[g] = uniformPool(poolStream(seed, 100+g), prefixes, 1<<20)
	}
	for _, step := range []func() error{l.lookups, l.handlers, l.sockets, l.build, l.scrapes} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// measure runs fn as the rung's span and records its result.
func (l *ladder) measure(name string, fn func() (float64, error)) error {
	var v float64
	_, err := l.tr.timed(name, l.trace, 0, func() (err error) {
		v, err = fn()
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.layers.add(name, v)
	return nil
}

// block returns block i of goroutine g's pool.
func (l *ladder) block(g, i, size int) []uint32 {
	pool := l.pools[g]
	i %= len(pool) / size
	return pool[i*size : (i+1)*size]
}

// lookups times the in-process rungs: Snapshot.Lookup, Engine.Lookup,
// Cluster.Lookup and Cluster.LookupBatch at 1, 2 and 8 shards.
func (l *ladder) lookups() error {
	snap, mappers := l.e.snap, len(l.e.mappers)
	type lookuper interface {
		Lookup(mapper int, ip uint32) geoserve.Answer
	}
	rung := func(name string, g int, target lookuper) error {
		return l.measure(name, func() (float64, error) {
			var acc [len(l.pools)]int // one per goroutine
			ns := spin(l.rung, g, blockSize, func(g, i int) {
				n := 0
				for j, ip := range l.block(g, i, blockSize) {
					n += target.Lookup(j%mappers, ip).ASN
				}
				acc[g] += n
			})
			sink += acc[0] + acc[1]
			return ns, nil
		})
	}
	engine := geoserve.NewEngine(snap)
	if err := rung("geoserve.snapshot_lookup_ns", 1, snap); err != nil {
		return err
	}
	if err := rung("geoserve.engine_lookup_ns", 1, engine); err != nil {
		return err
	}
	if err := rung("geoserve.engine_lookup_ns_c2", 2, engine); err != nil {
		return err
	}
	out := make([]geoserve.Answer, geoserve.MaxBatch)
	for _, shards := range []int{1, 2, 8} {
		c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: shards})
		if err != nil {
			return err
		}
		if err := rung(fmt.Sprintf("geoserve.cluster%d_lookup_ns", shards), 1, c); err != nil {
			return err
		}
		if shards == shardsPerRep {
			if err := rung("geoserve.cluster2_lookup_ns_c2", 2, c); err != nil {
				return err
			}
		}
		err = l.measure(fmt.Sprintf("geoserve.cluster%d_batch_ns", shards), func() (float64, error) {
			var err error
			ns := spin(l.rung, 1, geoserve.MaxBatch, func(g, i int) {
				if _, e := c.LookupBatch(i%mappers, l.block(g, i, geoserve.MaxBatch), out); e != nil {
					err = e
				}
			})
			return ns, err
		})
		if err != nil {
			return err
		}
	}
	ip := l.pools[0][0]
	return l.measure("geoserve.engine_lookup_allocs", func() (float64, error) {
		return testing.AllocsPerRun(1000, func() { sink += engine.Lookup(0, ip).ASN }), nil
	})
}

// handlers times the HTTP handlers through ServeHTTP into a null
// writer: no socket, no net/http server.
func (l *ladder) handlers() error {
	cluster, err := geoserve.NewCluster(l.e.snap, geoserve.ClusterConfig{Shards: shardsPerRep})
	if err != nil {
		return err
	}
	h := geoserve.NewClusterHandler(cluster)
	w := newNullWriter()

	frames := newBinFrames(l.pools[0], geoserve.MaxBatch, len(l.e.mappers))
	bodyOff := frames.addrOff - 12
	body := &rewindBody{}
	post, err := http.NewRequest("POST", "/v1/locate/bin", body)
	if err != nil {
		return err
	}
	serveBin := func(i int) error {
		req, _ := frames.request(i)
		body.Reset(req[bodyOff:])
		post.Body = body
		w.status, w.n = 0, 0
		h.ServeHTTP(w, post)
		if want := wireReplyHead + geoserve.MaxBatch*geoserve.WireAnswerSize; w.status > 200 || w.n != want {
			return fmt.Errorf("handler answered status %d with %d bytes, want %d", w.status, w.n, want)
		}
		return nil
	}
	err = l.measure("geoserve.wire_handler_ns", func() (float64, error) {
		var err error
		ns := spin(l.rung, 1, geoserve.MaxBatch, func(_, i int) {
			if e := serveBin(i); e != nil {
				err = e
			}
		})
		return ns, err
	})
	if err != nil {
		return err
	}

	queries := make([]string, 1024)
	for i := range queries {
		queries[i] = "ip=" + geoserve.FormatIPv4(l.pools[0][i]) + "&mapper=" + l.e.mappers[i%len(l.e.mappers)]
	}
	get, err := http.NewRequest("GET", "/v1/locate", nil)
	if err != nil {
		return err
	}
	serveJSON := func(i int) error {
		get.URL.RawQuery = queries[i%len(queries)]
		w.status, w.n = 0, 0
		h.ServeHTTP(w, get)
		if w.status > 200 || w.n == 0 {
			return fmt.Errorf("handler answered status %d with %d bytes", w.status, w.n)
		}
		return nil
	}
	err = l.measure("geoserve.json_handler_us", func() (float64, error) {
		var err error
		ns := spin(l.rung, 1, 1, func(_, i int) {
			if e := serveJSON(i); e != nil {
				err = e
			}
		})
		return ns / 1e3, err
	})
	if err != nil {
		return err
	}
	// The pools behind both handlers are warm by now, so the counts
	// below are the steady state's and repeat exactly.
	i := 0
	if err := l.measure("geoserve.wire_handler_allocs", func() (float64, error) {
		return testing.AllocsPerRun(200, func() { serveBin(i); i++ }), nil
	}); err != nil {
		return err
	}
	if err := l.measure("geoserve.json_handler_allocs", func() (float64, error) {
		return testing.AllocsPerRun(1000, func() { serveJSON(i); i++ }), nil
	}); err != nil {
		return err
	}

	// The client's own work per lookup: encode a frame, check the reply,
	// fully verify one reply in verifyEvery.
	w.keep = &bytes.Buffer{}
	if err := serveBin(0); err != nil {
		return err
	}
	reply := w.keep.Bytes()
	w.keep = nil
	var (
		enc []byte
		v   binVerifier
	)
	return l.measure("bench.gen_ns_per_lookup", func() (float64, error) {
		var err error
		req0, _ := frames.request(0)
		ns := spin(l.rung, 1, geoserve.MaxBatch, func(_, i int) {
			enc = geoserve.AppendWireBatchRequest(enc[:0], 0, l.block(0, 0, geoserve.MaxBatch))
			if _, e := checkBinReply(reply, frames, req0, 0); e != nil {
				err = e
			}
			if i%verifyEvery == 0 {
				if e := v.verify(reply, l.e.snap, 0); e != nil {
					err = e
				}
			}
		})
		return ns, err
	})
}

// rtt runs one client serially for a rung and returns its median
// round-trip time in µs. It takes a client constructor's results.
func (l *ladder) rtt(c client, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	defer c.close()
	res := closedLoop([]client{c}, time.Now(), l.rung, 0, nil)
	if len(res.errs) > 0 {
		return 0, errors.New(res.errs[0])
	}
	return cutSlices(res.samples, 0, l.rung, 1, time.Hour)[0].p50us, nil
}

// sockets times one serial connection against a replica directly, the
// router, and a stub that returns canned replies of the same size.
func (l *ladder) sockets() error {
	e, f, pool := l.e, l.e.fleet, l.pools[0]
	binTo := func(addr string, pool []uint32) (client, error) {
		return binClient(e, addr, pool, geoserve.MaxBatch, l.deadline)
	}
	jsonTo := func(addr string, pool []uint32, hdr string) (client, error) {
		return jsonClient(e, addr, pool, hdr, l.deadline)
	}
	// One fixed request each, for the stubs to replay the answer to.
	one := pool[:geoserve.MaxBatch]
	binReq, _ := newBinFrames(one, geoserve.MaxBatch, len(e.mappers)).request(0)
	jsonReq := appendLocateRequest(nil, one[0], e.mappers[0], "")

	for _, r := range []struct {
		name string
		rtt  func() (float64, error)
	}{
		{"replica.direct_bin_rtt_us", func() (float64, error) { return l.rtt(binTo(f.repAddr[0], pool)) }},
		{"replica.router_bin_rtt_us", func() (float64, error) { return l.rtt(binTo(f.routerAddr, pool)) }},
		{"replica.direct_json_rtt_us", func() (float64, error) { return l.rtt(jsonTo(f.repAddr[0], pool, "")) }},
		{"replica.router_json_rtt_us", func() (float64, error) { return l.rtt(jsonTo(f.routerAddr, pool, "")) }},
		{"bench.stub_bin_rtt_us", func() (float64, error) {
			return l.stubRTT(binReq, geoserve.WireContentType, func(addr string) (client, error) { return binTo(addr, one) })
		}},
		{"bench.stub_json_rtt_us", func() (float64, error) {
			return l.stubRTT(jsonReq, "application/json", func(addr string) (client, error) { return jsonTo(addr, one[:1], "") })
		}},
		// The same request with and without X-Geo-Trace, alternated so
		// that drift cancels; straight to a replica, because the router
		// stamps a trace ID on everything it forwards.
		{"obs.trace_header_overhead_us", func() (float64, error) {
			hdr := obs.TraceHeader + ": " + obs.NewTraceID().String() + "\r\n"
			var plain, traced []float64
			for round := 0; round < 2; round++ {
				p, err := l.rtt(jsonTo(f.repAddr[0], pool, ""))
				if err != nil {
					return 0, err
				}
				t, err := l.rtt(jsonTo(f.repAddr[0], pool, hdr))
				if err != nil {
					return 0, err
				}
				plain, traced = append(plain, p), append(traced, t)
			}
			return median(traced) - median(plain), nil
		}},
	} {
		if err := l.measure(r.name, r.rtt); err != nil {
			return err
		}
	}
	return nil
}

// stubRTT asks a replica req once, serves the answer from a stub, and
// times the client mk builds against the stub.
func (l *ladder) stubRTT(req []byte, contentType string, mk func(addr string) (client, error)) (float64, error) {
	conn, err := dialHTTP(l.e.fleet.repAddr[0], l.deadline)
	if err != nil {
		return 0, err
	}
	err = conn.roundTrip(req)
	st := &stub{reply: bytes.Clone(conn.body), contentType: contentType, epoch: conn.epoch}
	conn.close()
	if err != nil {
		return 0, err
	}
	ln, err := listen(st)
	if err != nil {
		return 0, err
	}
	defer ln.close()
	return l.rtt(mk(ln.addr))
}

// build times the build-path calls no epoch step makes: a full
// compile and a full cluster swap.
func (l *ladder) build() error {
	e := l.e
	l.layers.add("geoserve.compile_ms", ms(e.times.compile))
	var other *geoserve.Snapshot
	for i := 0; i < 2; i++ {
		err := l.measure("geoserve.compile_ms", func() (float64, error) {
			t0 := time.Now()
			snap, err := e.pipe.Serve()
			other = snap
			return ms(time.Since(t0)), err
		})
		if err != nil {
			return err
		}
	}
	c, err := geoserve.NewCluster(e.snap, geoserve.ClusterConfig{Shards: shardsPerRep})
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		err := l.measure("geoserve.swap_ms", func() (float64, error) {
			t0 := time.Now()
			_, err := c.Swap(other)
			return ms(time.Since(t0)), err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scrapes times GET /metrics on the router and one replica.
func (l *ladder) scrapes() error {
	f := l.e.fleet
	for i := 0; i < 5; i++ {
		var size int
		err := l.measure("obs.scrape_ms", func() (float64, error) {
			t0 := time.Now()
			for _, addr := range []string{f.routerAddr, f.repAddr[0]} {
				body, err := httpGet(f.hc, "http://"+addr+"/metrics")
				if err != nil {
					return 0, err
				}
				size += len(body)
			}
			return ms(time.Since(t0)), nil
		})
		if err != nil {
			return err
		}
		l.layers.add("obs.scrape_bytes", float64(size))
	}
	return nil
}

func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// servedLookups reads how many lookups the serving side says it has
// answered: the sum of geoserve_lookups_total over every series of
// every replica's GET /metrics, or of the in-process engine's handler
// when the workload bypasses the fleet.
func servedLookups(e *env, w *workload) (float64, error) {
	var pages [][]byte
	if w.fleet {
		for _, addr := range e.fleet.repAddr {
			page, err := httpGet(e.fleet.hc, "http://"+addr+"/metrics")
			if err != nil {
				return 0, err
			}
			pages = append(pages, page)
		}
	} else {
		get, err := http.NewRequest("GET", "/metrics", nil)
		if err != nil {
			return 0, err
		}
		rec := newNullWriter()
		rec.keep = &bytes.Buffer{}
		geoserve.NewHandler(e.engine).ServeHTTP(rec, get)
		pages = append(pages, rec.keep.Bytes())
	}
	total := 0.0
	for _, page := range pages {
		for _, line := range strings.Split(string(page), "\n") {
			if !strings.HasPrefix(line, "geoserve_lookups_total{") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return 0, fmt.Errorf("bad metrics line %q", line)
			}
			total += v
		}
	}
	return total, nil
}
