// Package faultinject is a deterministic fault-injection layer for
// HTTP paths: a RoundTripper wrapper that injects connection drops,
// response truncations, bit-flips, added latency and mid-transfer
// resets on a seeded or scripted schedule. The replication chaos suite
// drives it to prove the serving fleet degrades gracefully — every
// "random" failure replays exactly under a fixed seed, so a chaos test
// that passes once passes always.
//
// Local is the companion piece: a RoundTripper that serves an
// http.Handler in memory, so a whole builder/replica/router fleet runs
// inside one test process with no sockets, and every fault between
// the processes-to-be is injected, not accidental.
package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/rng"
)

// Fault describes what happens to one HTTP exchange. Clean passes the
// exchange through untouched; the zero value does not, because its
// FlipBit of 0 flips bit 0 of the body.
type Fault struct {
	// Drop fails the exchange before any byte moves, like a refused or
	// reset connection.
	Drop bool
	// Latency delays the response this long (honouring request-context
	// cancellation, like a real slow peer).
	Latency time.Duration
	// TruncateAt > 0 ends the response body cleanly after that many
	// bytes — a short read the client only detects by length or
	// checksum.
	TruncateAt int
	// ResetAt > 0 errors the response body after that many bytes — a
	// connection reset mid-transfer.
	ResetAt int
	// FlipBit >= 0 XOR-flips one bit of the body: bit (FlipBit%8) of
	// byte (FlipBit/8 mod body length). Length is preserved, so only a
	// checksum catches it.
	FlipBit int
	// StallAt > 0 turns the response into a slow writer: once that many
	// body bytes have been delivered, every further Read pauses
	// StallPause first (honouring request-context cancellation). Unlike
	// Latency — which delays the whole response once — a stall starves
	// the reader mid-body, the shape of a wedged peer that accepted the
	// connection and then stopped making progress.
	StallAt    int
	StallPause time.Duration
}

// Clean is the no-fault value (FlipBit's zero value would flip bit 0;
// use Clean or set FlipBit -1 when building Faults by hand).
var Clean = Fault{FlipBit: -1}

// Decider chooses the fault for one exchange. attempt counts all
// exchanges through the transport, from 0, in arrival order.
type Decider func(attempt int, req *http.Request) Fault

// Script replays faults[i] on attempt i and passes everything after
// the script through clean — the shape chaos tests want: "first two
// fetches corrupt, then recovery".
func Script(faults ...Fault) Decider {
	return func(attempt int, _ *http.Request) Fault {
		if attempt < len(faults) {
			return faults[attempt]
		}
		return Clean
	}
}

// Probabilities drives the seeded random decider.
type Probabilities struct {
	Drop, Truncate, Reset, Flip float64
	// LatencyEvery injects MeanLatency-exponential latency with this
	// probability.
	LatencyEvery float64
	MeanLatency  time.Duration
}

// Probabilistic returns a seeded decider: the fault sequence is a pure
// function of the seed and the attempt order, so a failing chaos run
// replays bit-identically.
func Probabilistic(seed int64, p Probabilities) Decider {
	var mu sync.Mutex
	r := rng.New(seed)
	return func(_ int, _ *http.Request) Fault {
		mu.Lock()
		defer mu.Unlock()
		f := Clean
		switch {
		case r.Bool(p.Drop):
			f.Drop = true
		case r.Bool(p.Truncate):
			f.TruncateAt = 1 + r.Intn(512)
		case r.Bool(p.Reset):
			f.ResetAt = 1 + r.Intn(512)
		case r.Bool(p.Flip):
			f.FlipBit = r.Intn(1 << 20)
		}
		if p.LatencyEvery > 0 && r.Bool(p.LatencyEvery) {
			f.Latency = time.Duration(r.Exp(float64(p.MeanLatency)))
		}
		return f
	}
}

// Counters reports what the transport injected, by fault kind, plus
// the exchanges that passed clean.
type Counters struct {
	Attempts, Drops, Truncations, Resets, Flips, Delays, Stalls, Clean uint64
}

// Transport wraps a RoundTripper and injects the Decider's faults.
// Safe for concurrent use; attempts are numbered in arrival order.
type Transport struct {
	Base   http.RoundTripper
	Decide Decider

	attempt atomic.Uint64
	drops   atomic.Uint64
	truncs  atomic.Uint64
	resets  atomic.Uint64
	flips   atomic.Uint64
	delays  atomic.Uint64
	stalls  atomic.Uint64
	clean   atomic.Uint64
}

// New wraps base with the decider's fault schedule.
func New(base http.RoundTripper, decide Decider) *Transport {
	return &Transport{Base: base, Decide: decide}
}

// Counters snapshots the injection counts so far.
func (t *Transport) Counters() Counters {
	return Counters{
		Attempts:    t.attempt.Load(),
		Drops:       t.drops.Load(),
		Truncations: t.truncs.Load(),
		Resets:      t.resets.Load(),
		Flips:       t.flips.Load(),
		Delays:      t.delays.Load(),
		Stalls:      t.stalls.Load(),
		Clean:       t.clean.Load(),
	}
}

// errDropped is the injected connection failure.
type errDropped struct{ url string }

func (e errDropped) Error() string {
	return fmt.Sprintf("faultinject: dropped connection to %s", e.url)
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	attempt := int(t.attempt.Add(1) - 1)
	f := Clean
	if t.Decide != nil {
		f = t.Decide(attempt, req)
	}
	if f.Latency > 0 {
		t.delays.Add(1)
		select {
		case <-time.After(f.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if f.Drop {
		t.drops.Add(1)
		return nil, errDropped{req.URL.String()}
	}
	resp, err := t.Base.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	switch {
	case f.TruncateAt > 0:
		t.truncs.Add(1)
		resp.Body = &faultBody{src: resp.Body, stopAt: f.TruncateAt}
		resp.ContentLength = -1
	case f.ResetAt > 0:
		t.resets.Add(1)
		resp.Body = &faultBody{src: resp.Body, stopAt: f.ResetAt, reset: true}
		resp.ContentLength = -1
	case f.FlipBit >= 0:
		t.flips.Add(1)
		resp.Body = &faultBody{src: resp.Body, flipBit: f.FlipBit}
	case f.StallAt > 0 && f.StallPause > 0:
		t.stalls.Add(1)
		resp.Body = &faultBody{src: resp.Body, flipBit: -1,
			stallAt: f.StallAt, stallPause: f.StallPause, ctx: req.Context()}
		resp.ContentLength = -1
	default:
		t.clean.Add(1)
	}
	return resp, nil
}

// faultBody distorts a response stream: clean EOF or an error at
// stopAt bytes, one flipped bit at an absolute body offset, or a
// per-Read stall once stallAt bytes have moved.
type faultBody struct {
	src     io.ReadCloser
	stopAt  int // 0 = no length fault
	reset   bool
	flipBit int // only when stopAt == 0; negative = no flip
	read    int
	flipped bool
	// stallAt/stallPause make every Read past stallAt bytes wait, like
	// a peer that stopped writing; ctx is the request context so a
	// deadlined caller escapes the stall.
	stallAt    int
	stallPause time.Duration
	ctx        context.Context
}

var errReset = fmt.Errorf("faultinject: connection reset mid-transfer")

func (b *faultBody) Read(p []byte) (int, error) {
	if b.stallAt > 0 {
		if b.read >= b.stallAt {
			select {
			case <-time.After(b.stallPause):
			case <-b.ctx.Done():
				return 0, b.ctx.Err()
			}
		} else if max := b.stallAt - b.read; len(p) > max {
			// Deliver exactly stallAt bytes cleanly so the stall begins
			// at a deterministic offset.
			p = p[:max]
		}
	}
	if b.stopAt > 0 {
		if b.read >= b.stopAt {
			if b.reset {
				return 0, errReset
			}
			return 0, io.EOF
		}
		if max := b.stopAt - b.read; len(p) > max {
			p = p[:max]
		}
	}
	n, err := b.src.Read(p)
	if n > 0 && b.stopAt == 0 && b.flipBit >= 0 && !b.flipped {
		// Flip the bit once the stream reaches its absolute offset;
		// when the body ends first, the final chunk's last byte takes
		// the flip so short responses are corrupted too.
		at := b.flipBit / 8
		if at >= b.read && at < b.read+n {
			p[at-b.read] ^= byte(1) << (b.flipBit % 8)
			b.flipped = true
		} else if err == io.EOF {
			p[n-1] ^= byte(1) << (b.flipBit % 8)
			b.flipped = true
		}
	}
	b.read += n
	return n, err
}

func (b *faultBody) Close() error { return b.src.Close() }

// Local serves an http.Handler in memory: requests round-trip through
// ServeHTTP with no sockets, preserving status, headers, body and
// Range semantics. Wrap it in a Transport to put faults between a
// client and the handler.
type Local struct{ Handler http.Handler }

func (l Local) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	inner := req.Clone(req.Context())
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		inner.Body = io.NopCloser(bytes.NewReader(body))
	}
	l.Handler.ServeHTTP(rec, inner)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
