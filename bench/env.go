package main

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/replica"
)

const (
	worldSeed    = 1 // the world never varies; -seed drives only the inputs
	numReplicas  = 2
	shardsPerRep = 2
	retainEpochs = 4
	// warmupProbes is set explicitly because the lookup-count agreement
	// must add the self-probe lookups every install makes.
	warmupProbes = 16
)

// stageNames are core.Run's stages in the order it announces them.
var stageNames = [...]string{"world", "internet", "fabric", "publish", "routeviews", "collect", "process"}

// stageClock is the io.Writer handed to core.Config.Progress: it notes
// when each stage announcement arrives (detail lines are indented).
type stageClock struct{ at []time.Time }

func (c *stageClock) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] != ' ' {
		c.at = append(c.at, time.Now())
	}
	return len(p), nil
}

// setupTimes is where one set-up's time went.
type setupTimes struct {
	total, run, compile  time.Duration
	stages               [len(stageNames)]time.Duration
	publish, sync, probe time.Duration // fleet only
}

// env is everything one run serves from: the pipeline, its compiled
// snapshot, the in-process engine and, for the fleet workloads, the
// publisher → replicas → router fleet on loopback listeners.
type env struct {
	scale   float64
	pipe    *core.Pipeline
	snap    *geoserve.Snapshot
	mappers []string
	engine  *geoserve.Engine
	fleet   *fleet
	book    *epochBook
	times   setupTimes
}

// setUp builds the world and compiles it, and with withFleet publishes
// it to a fresh fleet and waits until the router plans on it.
func setUp(scale float64, withFleet bool) (*env, error) {
	e := &env{scale: scale, book: newEpochBook()}
	t0 := time.Now()
	clock := &stageClock{}
	p, err := core.Run(core.Config{Seed: worldSeed, Scale: scale, Progress: clock})
	if err != nil {
		return nil, fmt.Errorf("core.Run: %w", err)
	}
	t1 := time.Now()
	e.pipe = p
	e.times.run = t1.Sub(t0)
	if len(clock.at) != len(stageNames) {
		return nil, fmt.Errorf("core.Run announced %d stages, the harness knows %d", len(clock.at), len(stageNames))
	}
	for i, at := range clock.at {
		next := t1
		if i+1 < len(clock.at) {
			next = clock.at[i+1]
		}
		e.times.stages[i] = next.Sub(at)
	}
	if e.snap, err = p.Serve(); err != nil {
		return nil, fmt.Errorf("Pipeline.Serve: %w", err)
	}
	e.times.compile = time.Since(t1)
	e.mappers = e.snap.Mappers()
	e.engine = geoserve.NewEngine(e.snap)
	if withFleet {
		if e.fleet, err = newFleet(e.snap, &e.times); err != nil {
			return nil, err
		}
	}
	e.book.publish(1, e.snap)
	e.book.propagated.Store(1)
	e.times.total = time.Since(t0)
	return e, nil
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
}

// listener is one loopback HTTP server.
type listener struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ln := &listener{srv: &http.Server{Handler: h}, addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ln.done)
		ln.srv.Serve(l) // returns ErrServerClosed after close
	}()
	return ln, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// fleet is the replicated serving tier, every hop a real socket. The
// harness starts no Replica.Run or Router.Run: it calls SyncOnce and
// ProbeOnce itself, so no timer of the fleet's fires inside a window.
type fleet struct {
	pub        *replica.Publisher
	reps       [numReplicas]*replica.Replica
	router     *replica.Router
	hc         *http.Client
	listeners  []*listener
	repAddr    [numReplicas]string
	routerAddr string
}

func newFleet(snap *geoserve.Snapshot, times *setupTimes) (_ *fleet, err error) {
	f := &fleet{
		pub: replica.NewPublisher(),
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.pub.SetRetain(retainEpochs)
	t0 := time.Now()
	m, err := f.pub.Publish(snap)
	if err != nil {
		return nil, fmt.Errorf("Publisher.Publish: %w", err)
	}
	times.publish = time.Since(t0)
	serve := func(h http.Handler) (string, error) {
		l, err := listen(h)
		if err != nil {
			return "", err
		}
		f.listeners = append(f.listeners, l)
		return l.addr, nil
	}
	pubAddr, err := serve(f.pub.Handler())
	if err != nil {
		return nil, err
	}
	var urls []string
	for i := range f.reps {
		f.reps[i] = replica.New(replica.Config{
			BuilderURL:   "http://" + pubAddr,
			Client:       f.hc,
			Seed:         int64(i + 1),
			Shards:       shardsPerRep,
			WarmupProbes: warmupProbes,
		})
		if f.repAddr[i], err = serve(f.reps[i].Handler()); err != nil {
			return nil, err
		}
		urls = append(urls, "http://"+f.repAddr[i])
	}
	if times.sync, err = f.syncAll(nil, 0, 0); err != nil {
		return nil, err
	}
	f.router = replica.NewRouter(replica.RouterConfig{Replicas: urls, Client: f.hc})
	if f.routerAddr, err = serve(f.router.Handler()); err != nil {
		return nil, err
	}
	if times.probe, err = f.probe(nil, 0, 0, m.Epoch, numReplicas); err != nil {
		return nil, err
	}
	return f, nil
}

// syncAll has every replica SyncOnce concurrently and returns how long
// the slowest took.
func (f *fleet) syncAll(tr *tracer, trace, parent uint64) (time.Duration, error) {
	var (
		wg   sync.WaitGroup
		errs [numReplicas]error
	)
	start := time.Now()
	for i, r := range f.reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = tr.timed(fmt.Sprintf("replica.sync%d", i), trace, parent, func() error {
				_, err := r.SyncOnce(context.Background())
				return err
			})
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs[:]...)
}

// probe runs Router.ProbeOnce and checks that the router then plans on
// epoch with at least minReplicas in the plan.
func (f *fleet) probe(tr *tracer, trace, parent uint64, epoch uint64, minReplicas int) (time.Duration, error) {
	return tr.timed("replica.probe", trace, parent, func() error {
		f.router.ProbeOnce(context.Background())
		if st := f.router.Status(); st.Epoch != epoch || st.HealthyReplicas < minReplicas {
			return fmt.Errorf("router plans on epoch %d with %d replicas, want epoch %d with %d",
				st.Epoch, st.HealthyReplicas, epoch, minReplicas)
		}
		return nil
	})
}

func (f *fleet) close() {
	for _, l := range f.listeners {
		l.close()
	}
	f.hc.CloseIdleConnections()
}

// epochEntry is one published epoch as the harness remembers it.
type epochEntry struct {
	epoch uint64
	snap  *geoserve.Snapshot
}

// epochBook maps the epoch tag of a binary frame, or the X-Geo-Epoch of
// a JSON reply, to the snapshot that must have produced it, for the
// epochs the publisher still retains.
type epochBook struct {
	mu      sync.RWMutex
	byTag   map[uint64]epochEntry
	byEpoch map[uint64]epochEntry
	// propagated is the newest epoch every replica serves and the
	// router plans on; a reply must not be older than its value when
	// the request was sent.
	propagated atomic.Uint64
}

func newEpochBook() *epochBook {
	return &epochBook{byTag: map[uint64]epochEntry{}, byEpoch: map[uint64]epochEntry{}}
}

// tagOf is a snapshot's wire epoch tag: the first 8 bytes of its
// content digest (geoserve/wire.go).
func tagOf(snap *geoserve.Snapshot) uint64 {
	raw, err := hex.DecodeString(snap.Digest()[:16])
	if err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(raw)
}

func (b *epochBook) publish(epoch uint64, snap *geoserve.Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	en := epochEntry{epoch, snap}
	b.byTag[tagOf(snap)] = en
	b.byEpoch[epoch] = en
	if old, ok := b.byEpoch[epoch-retainEpochs]; ok {
		delete(b.byEpoch, old.epoch)
		if b.byTag[tagOf(old.snap)].epoch == old.epoch {
			delete(b.byTag, tagOf(old.snap))
		}
	}
}

// byTagKey and byEpochKey say what a reply identified its epoch by.
const (
	byTagKey = iota
	byEpochKey
)

// resolve finds the snapshot a reply says it came from, by wire tag or
// by X-Geo-Epoch, and rejects an epoch the fleet should not serve:
// never published (or no longer retained), or older than minEpoch, the
// newest epoch that had propagated before the request was sent.
func (b *epochBook) resolve(by int, key, minEpoch uint64) (*geoserve.Snapshot, error) {
	b.mu.RLock()
	en, ok := b.byTag[key]
	if by == byEpochKey {
		en, ok = b.byEpoch[key]
	}
	b.mu.RUnlock()
	if !ok {
		return nil, errors.New("reply carries an epoch the builder never published (or no longer retains)")
	}
	if en.epoch < minEpoch {
		return nil, fmt.Errorf("reply from epoch %d, but epoch %d had propagated before the request", en.epoch, minEpoch)
	}
	return en.snap, nil
}
