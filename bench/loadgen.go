package main

import (
	"sync"
	"time"
)

// loopResult is what one closed loop measured.
type loopResult struct {
	samples [][]sample // per client
	errs    []string   // the first few failures, for the report
}

// maxErrs bounds the failure messages kept per client.
const maxErrs = 4

// closedLoop runs every client in its own goroutine for total: each
// sends its next request only after the previous reply, and with every
// set, not before its next tick of a fixed schedule either (a tick
// missed by a slow reply is skipped, never caught up in a burst). A
// think time slept after each reply would make the rate a measurement
// of the sleep's overshoot, which moves by a millisecond with the load
// on the two CPUs; a schedule absorbs it.
// All clients share t0, so sample.end is comparable across them. One
// reply in verifyEvery is fully verified after its clock has stopped;
// a reply that fails there fails the request. The tracer, when set,
// records one span per request.
func closedLoop(clients []client, t0 time.Time, total, every time.Duration, tr *tracer) loopResult {
	res := loopResult{samples: make([][]sample, len(clients))}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	trace := tr.newID()
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples := make([]sample, 0, 1<<16)
			nerr := 0
			due := t0
			for i := 0; ; i++ {
				if every > 0 {
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					} else {
						due = time.Now()
					}
					due = due.Add(every)
				}
				start := time.Now()
				if start.Sub(t0) >= total {
					break
				}
				n, err := cl.do(i)
				end := time.Now()
				tr.add("client.request", trace, 0, start, end)
				if err == nil && i%verifyEvery == 0 {
					err = cl.verify()
				}
				samples = append(samples, sample{end: end.Sub(t0), dur: end.Sub(start), lookups: int32(n), ok: err == nil})
				if err != nil && nerr < maxErrs {
					nerr++
					mu.Lock()
					res.errs = append(res.errs, err.Error())
					mu.Unlock()
				}
			}
			res.samples[c] = samples
		}()
	}
	wg.Wait()
	return res
}
