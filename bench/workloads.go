package main

import (
	"fmt"
	"time"

	"geonet/internal/geoserve"
)

const (
	// blockSize is how many in-process lookups are timed as one
	// "request" of inproc-lookup: a single clock pair around a 0.2 µs
	// call would measure the clock.
	blockSize = 1024
	// verifyEvery: one reply in this many is compared field for field
	// with the snapshot's own lookup, outside the request's clock.
	verifyEvery = 16
	churnBatch  = 256
	churnEvery  = 3 * time.Millisecond
)

// client is one closed-loop caller.
type client struct {
	// do sends request i, waits for the reply and makes the cheap checks
	// every reply gets; it returns the lookups the request carried.
	do func(i int) (lookups int, err error)
	// verify fully checks the reply do just received.
	verify func() error
	close  func()
}

// workload is one named traffic shape.
type workload struct {
	name, why string
	// fleet: the untraced run needs the replicated tier (the traced run
	// always builds it, for the ladder).
	fleet   bool
	churn   bool
	clients int
	// every, when set, is the period of each client's request schedule.
	every time.Duration
	// limit is the latency limit behind within_limit_frac.
	limit      time.Duration
	newClients func(e *env, w *workload, seed int64, deadline time.Time) ([]client, error)
}

var workloads = []*workload{
	{
		name:    "inproc-lookup",
		why:     "2 goroutines call Engine.Lookup directly: index search, the engine's clock reads and shared atomics are all the work; sockets, HTTP, router and snapfile do nothing",
		clients: 2, limit: 2 * time.Millisecond,
		newClients: func(e *env, w *workload, seed int64, _ time.Time) ([]client, error) {
			prefixes := e.snap.Prefixes()
			cs := make([]client, w.clients)
			for c := range cs {
				cs[c] = inprocClient(e, uniformPool(poolStream(seed, c), prefixes, uniformDraws))
			}
			return cs, nil
		},
	},
	{
		name:  "fleet-bin",
		why:   "2 connections post 4096-address binary frames through router and replicas: per-lookup and per-byte work (scatter, slab copy, two hops of 147 KB answers) dominates; per-request overhead is small",
		fleet: true, clients: 2, limit: 8 * time.Millisecond,
		newClients: func(e *env, w *workload, seed int64, deadline time.Time) ([]client, error) {
			return fleetClients(w.clients, func(c int) (client, error) {
				pool := uniformPool(poolStream(seed, c), e.snap.Prefixes(), uniformDraws)
				return binClient(e, e.fleet.routerAddr, pool, geoserve.MaxBatch, deadline)
			})
		},
	},
	{
		name:  "fleet-json",
		why:   "2 connections issue single Zipf-distributed GET /v1/locate through the router: per-request cost (HTTP parse, forward, headers, JSON tail) is everything; the 0.2 us lookup is under 1 %",
		fleet: true, clients: 2, limit: time.Millisecond,
		newClients: func(e *env, w *workload, seed int64, deadline time.Time) ([]client, error) {
			return fleetClients(w.clients, func(c int) (client, error) {
				pool := zipfPool(poolStream(seed, c), e.snap.Prefixes(), zipfTheta, zipfDraws)
				return jsonClient(e, e.fleet.routerAddr, pool, "", deadline)
			})
		},
	},
	{
		name:  "churn-epochs",
		why:   "an epoch is compiled, published, synced and probed every 250 ms beside one light reader: compile-delta, snapfile and fetch/verify/swap do the work; only here does a swap that stalls readers show",
		fleet: true, churn: true, clients: 1, every: churnEvery, limit: 20 * time.Millisecond,
		newClients: func(e *env, w *workload, seed int64, deadline time.Time) ([]client, error) {
			return fleetClients(w.clients, func(c int) (client, error) {
				// The light reader walks about half of the smaller pool in a round.
				pool := uniformPool(poolStream(seed, c), e.snap.Prefixes(), zipfDraws)
				return binClient(e, e.fleet.routerAddr, pool, churnBatch, deadline)
			})
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fleetClients builds n socket clients, closing those already open
// when one fails.
func fleetClients(n int, mk func(c int) (client, error)) ([]client, error) {
	cs := make([]client, 0, n)
	for c := 0; c < n; c++ {
		cl, err := mk(c)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		cs = append(cs, cl)
	}
	return cs, nil
}

func closeClients(cs []client) {
	for _, c := range cs {
		if c.close != nil {
			c.close()
		}
	}
}

// inprocClient calls Engine.Lookup over its pool, a block per request,
// alternating mappers, and keeps every answer as a caller would.
func inprocClient(e *env, pool []uint32) client {
	out := make([]geoserve.Answer, blockSize)
	blocks := len(pool) / blockSize
	mappers := len(e.mappers)
	var ips []uint32
	return client{
		do: func(i int) (int, error) {
			i %= blocks
			ips = pool[i*blockSize : (i+1)*blockSize]
			for j, ip := range ips {
				out[j] = e.engine.Lookup(j%mappers, ip)
			}
			return blockSize, nil
		},
		verify: func() error {
			snap := e.engine.Snapshot()
			for j, ip := range ips {
				if want := snap.Lookup(j%mappers, ip); out[j] != want {
					return fmt.Errorf("wrong answer for %s: got %+v, snapshot says %+v", geoserve.FormatIPv4(ip), out[j], want)
				}
			}
			return nil
		},
	}
}

// binClient posts pool, batch addresses a frame, to addr's
// /v1/locate/bin over one keep-alive connection.
func binClient(e *env, addr string, pool []uint32, batch int, deadline time.Time) (client, error) {
	conn, err := dialHTTP(addr, deadline)
	if err != nil {
		return client{}, err
	}
	frames := newBinFrames(pool, batch, len(e.mappers))
	var (
		snap   *geoserve.Snapshot
		mapper int
		v      binVerifier
	)
	return client{
		do: func(i int) (int, error) {
			req, m := frames.request(i)
			minEpoch := e.book.propagated.Load()
			if err := conn.roundTrip(req); err != nil {
				return 0, err
			}
			tag, err := checkBinReply(conn.body, frames, req, m)
			if err != nil {
				return 0, err
			}
			snap, err = e.book.resolve(byTagKey, tag, minEpoch)
			mapper = m
			return batch, err
		},
		verify: func() error { return v.verify(conn.body, snap, mapper) },
		close:  conn.close,
	}, nil
}

// jsonClient issues one GET /v1/locate per pool address to addr,
// alternating mappers; extraHeader rides on every request.
func jsonClient(e *env, addr string, pool []uint32, extraHeader string, deadline time.Time) (client, error) {
	conn, err := dialHTTP(addr, deadline)
	if err != nil {
		return client{}, err
	}
	var (
		snap   *geoserve.Snapshot
		mapper int
		ip     uint32
	)
	return client{
		do: func(i int) (int, error) {
			i %= len(pool)
			ip, mapper = pool[i], i%len(e.mappers)
			minEpoch := e.book.propagated.Load()
			conn.req = appendLocateRequest(conn.req[:0], ip, e.mappers[mapper], extraHeader)
			if err := conn.roundTrip(conn.req); err != nil {
				return 0, err
			}
			if err := checkLocateReply(conn.body, ip); err != nil {
				return 0, err
			}
			snap, err = e.book.resolve(byEpochKey, conn.epoch, minEpoch)
			return 1, err
		},
		verify: func() error { return verifyLocateReply(conn.body, snap, mapper, e.mappers[mapper], ip) },
		close:  conn.close,
	}, nil
}
