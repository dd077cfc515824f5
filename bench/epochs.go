package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"geonet/internal/churn"
	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

const (
	// epochPeriod is the churn cadence: one epoch is due every period,
	// and an epoch is "ok" when it has propagated before the next is due.
	epochPeriod = 250 * time.Millisecond
	// eventsPerStep is the churn-event count asked of every step.
	eventsPerStep = 20
	// offPathEvery is how often a traced epoch also times the snapfile
	// calls and a local cluster swap beside the critical path.
	offPathEvery = 4
)

// epochTimes is one epoch step as measured from outside.
type epochTimes struct {
	start                                   time.Duration // since the loop started
	total                                   time.Duration // step start → router plans on the new epoch
	next, compileDelta, publish, sync, tail time.Duration // tail: probe, or the in-process swap
	ok                                      bool
	err                                     error
}

// bag collects per-layer samples by metric name.
type bag map[string][]float64

func (b bag) add(name string, v float64) { b[name] = append(b[name], v) }

// stepper drives the write path one epoch at a time: Churner.Next →
// Pipeline.ServeDelta → Publisher.Publish → every replica SyncOnce →
// Router.ProbeOnce. Without a fleet the new snapshot is swapped into
// the in-process engine instead.
type stepper struct {
	e     *env
	ch    *churn.Churner
	prev  *geoserve.Snapshot
	epoch uint64
	steps int
	tr    *tracer
	// layers, when non-nil (the traced run), receives per-layer samples;
	// local is the builder-side cluster whose delta swap it times.
	layers bag
	local  *geoserve.Cluster
	outDir string
}

func newStepper(e *env, seed int64, tr *tracer, layers bag, outDir string) (*stepper, error) {
	ch, err := e.pipe.Churner(core.ServeOptions{}, seed)
	if err != nil {
		return nil, fmt.Errorf("Pipeline.Churner: %w", err)
	}
	s := &stepper{e: e, ch: ch, prev: e.snap, epoch: 1, tr: tr, layers: layers, outDir: outDir}
	if layers != nil {
		if s.local, err = geoserve.NewCluster(e.snap, geoserve.ClusterConfig{Shards: shardsPerRep}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// step runs one epoch to full propagation and checks that every
// replica then serves exactly the builder's digest. The traced run
// then times the off-path calls, after the epoch's clock has stopped.
func (s *stepper) step() epochTimes {
	trace, root := s.tr.newID(), s.tr.newID()
	start := time.Now()
	t, out := s.propagate(trace, root)
	end := time.Now()
	t.total = end.Sub(start)
	s.tr.addAs(root, "epoch", trace, 0, start, end)
	if t.err != nil || s.layers == nil {
		return t
	}
	stats := out.stats
	s.layers.add("churn.events_applied", float64(out.events))
	s.layers.add("geoserve.delta_rows_recompiled", float64(stats.Recompiled))
	s.layers.add("geoserve.delta_rows_patched", float64(stats.Patched))
	s.layers.add("geoserve.delta_dirty_frac", float64(stats.Recompiled+stats.Patched)/float64(max(stats.Rows, 1)))
	if s.steps%offPathEvery == 1 {
		t.err = s.offPath(trace, out.prev, out.snap, stats)
	}
	return t
}

// made is what one epoch step produced.
type made struct {
	prev, snap *geoserve.Snapshot
	stats      geoserve.DeltaStats
	events     int
}

// propagate is the epoch's critical path.
func (s *stepper) propagate(trace, root uint64) (t epochTimes, m made) {
	var st churn.Step
	t.next, t.err = s.tr.timed("churn.next", trace, root, func() (err error) {
		st, err = s.ch.Next(eventsPerStep)
		return err
	})
	if t.err != nil {
		return t, m
	}
	m.prev, m.events = s.prev, len(st.Events)
	t.compileDelta, t.err = s.tr.timed("geoserve.compile_delta", trace, root, func() (err error) {
		m.snap, m.stats, err = s.e.pipe.ServeDelta(s.prev, st)
		return err
	})
	if t.err != nil {
		return t, m
	}
	snap := m.snap
	s.prev = snap
	s.steps++

	f := s.e.fleet
	if f == nil {
		t.tail, _ = s.tr.timed("geoserve.swap", trace, root, func() error {
			s.e.engine.Swap(snap)
			return nil
		})
		s.epoch++
		return t, m
	}
	t.publish, t.err = s.tr.timed("replica.publish", trace, root, func() error {
		man, err := f.pub.Publish(snap)
		if err != nil {
			return err
		}
		s.epoch = man.Epoch
		// Known to the readers' check before any replica can serve it.
		s.e.book.publish(man.Epoch, snap)
		return nil
	})
	if t.err != nil {
		return t, m
	}
	if t.sync, t.err = f.syncAll(s.tr, trace, root); t.err != nil {
		return t, m
	}
	for i, r := range f.reps {
		if c := r.Cluster(); r.Epoch() != s.epoch || c == nil || c.Snapshot().Digest() != snap.Digest() {
			t.err = fmt.Errorf("replica %d serves epoch %d, not the builder's epoch %d digest %.16s", i, r.Epoch(), s.epoch, snap.Digest())
			return t, m
		}
	}
	// One replica in the plan is enough beside live readers: a reply a
	// replica gave just before its swap can reach the router after the
	// probe and set the router's note of that replica's epoch back
	// (Router.noteServed) until the next probe. Both replicas were just
	// checked directly.
	if t.tail, t.err = f.probe(s.tr, trace, root, s.epoch, 1); t.err != nil {
		return t, m
	}
	s.e.book.propagated.Store(s.epoch)
	return t, m
}

// offPath times, on the epoch's own snapshot pair, the calls the
// publisher and the replicas make inside Publish and SyncOnce, and the
// delta swap of a builder-side cluster.
func (s *stepper) offPath(trace uint64, prev, snap *geoserve.Snapshot, stats geoserve.DeltaStats) error {
	var (
		blob, delta []byte
		resplit     int
	)
	for _, call := range []struct {
		span, metric string
		fn           func() error
	}{
		{"snapfile.encode", "snapfile.encode_ms", func() (err error) {
			blob, err = snapfile.Encode(snap, s.epoch)
			return err
		}},
		{"snapfile.decode", "snapfile.decode_ms", func() error {
			_, _, err := snapfile.Decode(blob)
			return err
		}},
		{"snapfile.diff", "snapfile.diff_ms", func() (err error) {
			delta, err = snapfile.Diff(prev, snap, s.epoch-1, s.epoch)
			return err
		}},
		{"snapfile.apply", "snapfile.apply_ms", func() error {
			got, _, err := snapfile.Apply(prev, delta)
			if err == nil && got.Digest() != snap.Digest() {
				err = fmt.Errorf("applied delta lands on digest %.16s, want %.16s", got.Digest(), snap.Digest())
			}
			return err
		}},
		{"geoserve.swap_delta", "geoserve.swap_delta_ms", func() (err error) {
			_, resplit, err = s.local.SwapDelta(snap, stats.Touched)
			return err
		}},
	} {
		d, err := s.tr.timed(call.span, trace, 0, call.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", call.span, err)
		}
		s.layers.add(call.metric, ms(d))
	}
	s.layers.add("snapfile.file_bytes", float64(len(blob)))
	s.layers.add("snapfile.delta_bytes", float64(len(delta)))
	s.layers.add("snapfile.delta_bytes_per_changed_row", float64(len(delta))/float64(max(stats.Recompiled+stats.Patched, 1)))
	s.layers.add("geoserve.delta_resplit_shards", float64(resplit))

	// The cold-start path: the same bytes from a file, through mmap.
	path := filepath.Join(s.outDir, "epoch.snap")
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	d, err := s.tr.timed("snapfile.load", trace, 0, func() error {
		_, _, err := snapfile.Load(path)
		return err
	})
	if err != nil {
		return fmt.Errorf("snapfile.Load: %w", err)
	}
	s.layers.add("snapfile.load_ms", ms(d))
	return nil
}

// paced runs one step every epochPeriod from t0 until total has
// passed. A step that overruns delays the next, which then counts as
// late.
func (s *stepper) paced(t0 time.Time, total time.Duration) []epochTimes {
	var out []epochTimes
	for i := 0; ; i++ {
		due := time.Duration(i) * epochPeriod
		if due >= total {
			return out
		}
		time.Sleep(time.Until(t0.Add(due)))
		start := time.Since(t0)
		t := s.step()
		t.start = start
		t.ok = t.err == nil && start+t.total <= due+epochPeriod
		out = append(out, t)
	}
}

// drill runs n steps back to back on an idle system.
func (s *stepper) drill(n int) []epochTimes {
	out := make([]epochTimes, n)
	t0 := time.Now()
	for i := range out {
		start := time.Since(t0)
		out[i] = s.step()
		out[i].start = start
		out[i].ok = out[i].err == nil && out[i].total <= epochPeriod
	}
	return out
}
