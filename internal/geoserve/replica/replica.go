package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
	"geonet/internal/obs"
	"geonet/internal/rng"
)

// ErrVerify marks a fetched snapshot that arrived complete but failed
// verification (bad decode, digest/epoch disagreement with the
// manifest). The replica discards it and keeps serving its last-good
// epoch.
var ErrVerify = errors.New("replica: fetched snapshot failed verification")

// ErrEpochGone marks a typed replication not-found: the epoch we asked
// for was published but has already left the builder's retention
// window — the manifest we decided from went stale between our read
// and our fetch (the publisher pruned mid-poll). This is a benign race
// to recover from, not a failure: SyncOnce re-reads the manifest and
// retries within the same attempt, without counting a fetch failure or
// burning a backoff cycle.
var ErrEpochGone = errors.New("replica: requested epoch no longer retained by the builder")

// Config shapes a replica node.
type Config struct {
	// BuilderURL is the builder's base URL (no trailing slash).
	BuilderURL string
	// Client performs the fetches; nil means http.DefaultClient. Tests
	// inject a faultinject.Transport here.
	Client *http.Client
	// PollInterval is the manifest poll cadence while healthy
	// (default 2s).
	PollInterval time.Duration
	// FetchTimeout bounds one whole SyncOnce attempt (default 30s).
	FetchTimeout time.Duration
	// Backoff shapes the retry schedule after failed syncs.
	Backoff BackoffPolicy
	// Seed seeds the backoff jitter (default 1).
	Seed int64
	// StaleAfter is how long without successful builder contact before
	// /statusz reports stale_epoch (default 3×PollInterval).
	StaleAfter time.Duration
	// WarmupProbes is how many seeded self-probes (per interval kind)
	// a freshly verified snapshot must answer before the swap; 0 means
	// the default of 16, negative disables the gate.
	WarmupProbes int
	// Shards is how many prefix-range shards the geoserve.Cluster of
	// each installed epoch has: ranges that are counted and shed
	// separately, not workers. 0 or 1 means one shard.
	Shards int
	// QueueBudget is the per-shard in-flight batch budget; <= 0 means
	// geoserve.DefaultQueueBudget.
	QueueBudget int
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.PollInterval
	}
	if c.WarmupProbes == 0 {
		c.WarmupProbes = 16
	}
	return c
}

// served binds one epoch's cluster and handler together so the epoch
// headers a response carries always match the snapshot that answered
// it — the cross-process analogue of the cluster's epoch view.
type served struct {
	cluster *geoserve.Cluster
	handler http.Handler
	snap    *geoserve.Snapshot
	epoch   uint64
	digest  string
	since   time.Time
}

// Replica is one serving node of the fleet: it polls the builder's
// manifest, fetches new epochs (resuming interrupted downloads),
// verifies them end to end before the atomic swap, and serves the
// geoserve HTTP API from whatever epoch it last verified. A fetch that
// fails — unreachable builder, truncation, corruption, version skew —
// leaves the last-good epoch serving untouched.
type Replica struct {
	cfg     Config
	cur     atomic.Pointer[served]
	backoff *Backoff

	// partial retains an interrupted download keyed by the (epoch,
	// digest) it was for, so the next attempt resumes with a Range
	// request instead of starting over.
	mu            sync.Mutex
	partial       []byte
	partialEpoch  uint64
	partialDigest string
	lastErr       string

	lastContact    atomic.Int64 // unix nanos of the last successful manifest read; 0 = never
	fetches        atomic.Uint64
	failures       atomic.Uint64
	resumes        atomic.Uint64
	swaps          atomic.Uint64
	deltaSyncs     atomic.Uint64
	deltaFallbacks atomic.Uint64
	epochGone      atomic.Uint64
	warmupFails    atomic.Uint64
	warmupFailed   atomic.Bool // the most recent install attempt failed warm-up
	draining       atomic.Bool
	inflight       atomic.Int64
	now            func() time.Time
	obs            *obs.Observability
	// warmupFn gates the swap; tests stub it to force failures.
	warmupFn func(target *geoserve.Cluster, epoch uint64) error
}

// New builds a replica; it serves 503 until its first successful sync.
func New(cfg Config) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		cfg:     cfg,
		backoff: NewBackoff(cfg.Backoff, cfg.Seed),
		now:     time.Now,
		obs:     obs.NewObservability("replica"),
	}
	r.warmupFn = r.selfProbe
	r.obs.Metrics.Collect(r.collect)
	return r
}

// Obs exposes the replica's observability bundle so cmd/geoserved can
// mount the same registry and trace ring on a debug listener.
func (r *Replica) Obs() *obs.Observability { return r.obs }

// collect is the replica's collector: one Status, emitted as the
// replication families — how current the served epoch is, how syncing
// is going, and the gates (warm-up, drain) a fleet operator alerts on —
// followed by the serving families of the cluster that status named, so
// one scrape stays continuous however many epochs are installed.
func (r *Replica) collect(e *obs.Emitter) {
	st := r.Status()
	e.Gauge("geoserve_replication_epoch", "Served snapshot epoch (0 before the first sync).", nil, float64(st.Epoch))
	e.Gauge("geoserve_replication_epoch_age_seconds", "Seconds since the served epoch was installed (0 before the first sync).", nil, st.EpochAgeSeconds)
	e.Gauge("geoserve_replication_seconds_since_contact", "Seconds since the last successful manifest read (-1 before the first).", nil, st.SecondsSinceContact)
	e.Gauge("geoserve_replication_stale", "1 when serving an epoch without builder contact within StaleAfter.", nil, b2f(st.StaleEpoch))
	e.Counter("geoserve_replication_fetches_total", "Full snapshot files fetched.", nil, st.Fetches)
	e.Counter("geoserve_replication_fetch_failures_total", "Sync attempts that failed.", nil, st.FetchFailures)
	e.Counter("geoserve_replication_resumes_total", "Interrupted downloads resumed with a Range request.", nil, st.Resumes)
	e.Counter("geoserve_replication_swaps_total", "Verified epochs swapped into serving.", nil, st.Swaps)
	e.Counter("geoserve_replication_delta_syncs_total", "Epochs reached by applying a delta.", nil, st.DeltaSyncs)
	e.Counter("geoserve_replication_delta_fallbacks_total", "Delta attempts demoted to a full fetch.", nil, st.DeltaFallbacks)
	e.Counter("geoserve_replication_epoch_gone_total", "Retention-window races (requested epoch pruned mid-poll) recovered by re-reading the manifest.", nil, st.EpochGoneRaces)
	e.Counter("geoserve_replication_warmup_failures_total", "Install attempts rejected by the warm-up self-probe.", nil, st.WarmupFailures)
	e.Gauge("geoserve_replication_warmup_failed", "1 while the most recent install attempt failed warm-up.", nil, b2f(st.WarmupFailed))
	e.Gauge("geoserve_replication_draining", "1 after Drain is called.", nil, b2f(st.State == "draining"))
	e.Gauge("geoserve_replication_inflight", "Query requests currently being served.", nil, float64(st.InFlight))
	if st.Serving != nil {
		st.Serving.Emit(e)
	}
}

// Epoch reports the served epoch (0 before the first sync).
func (r *Replica) Epoch() uint64 {
	if cur := r.cur.Load(); cur != nil {
		return cur.epoch
	}
	return 0
}

// Cluster exposes the serving cluster of the current epoch (nil before
// the first sync); in-process callers can drive lookups through it.
func (r *Replica) Cluster() *geoserve.Cluster {
	if cur := r.cur.Load(); cur != nil {
		return cur.cluster
	}
	return nil
}

// Run drives the sync loop until ctx ends: poll the manifest, fetch
// and verify new epochs, swap; failures retry under the capped,
// jittered backoff and success rearms it.
func (r *Replica) Run(ctx context.Context) error {
	for {
		d := r.cfg.PollInterval
		if _, err := r.SyncOnce(ctx); err != nil {
			d = r.backoff.Next()
		} else {
			r.backoff.Reset()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

// SyncOnce performs one poll-fetch-verify-swap attempt: read the
// manifest, and when it names an epoch we do not serve, download
// (resuming any partial), verify byte integrity + content digest +
// manifest agreement, warm the new snapshot up, and atomically swap it
// in. When the builder still retains our current epoch a delta is
// fetched instead of the whole file; any delta failure — missing
// endpoint, corrupt bytes, wrong base, digest mismatch — falls back to
// the full fetch within the same attempt. Returns whether a new epoch
// was swapped in. Any error leaves the previously served epoch
// untouched.
//
// A typed gone answer (ErrEpochGone — the epoch the manifest named was
// pruned between our manifest read and our fetch) is a benign race,
// not a failure: SyncOnce re-reads the manifest once and retries
// within the same attempt, so the race neither counts toward
// fetch_failures nor burns a backoff cycle.
func (r *Replica) SyncOnce(ctx context.Context) (swapped bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.FetchTimeout)
	defer cancel()
	defer func() {
		if err != nil {
			r.failures.Add(1)
			r.mu.Lock()
			r.lastErr = err.Error()
			r.mu.Unlock()
		}
	}()

	m, err := r.fetchManifest(ctx)
	if err != nil {
		return false, err
	}
	swapped, err = r.syncToManifest(ctx, m)
	if errors.Is(err, ErrEpochGone) {
		r.epochGone.Add(1)
		if m, err = r.fetchManifest(ctx); err != nil {
			return false, err
		}
		swapped, err = r.syncToManifest(ctx, m)
	}
	return swapped, err
}

// syncToManifest brings the replica up to one specific manifest: no-op
// if already serving it, else delta when eligible, else full fetch +
// verify + install.
func (r *Replica) syncToManifest(ctx context.Context, m Manifest) (bool, error) {
	cur := r.cur.Load()
	if cur != nil && cur.epoch == m.Epoch && cur.digest == m.Digest {
		return false, nil
	}
	if m.FormatVersion != snapfile.FormatVersion {
		return false, fmt.Errorf("%w: builder publishes format v%d, this build speaks v%d",
			snapfile.ErrVersion, m.FormatVersion, snapfile.FormatVersion)
	}

	if snap, ok := r.trySyncDelta(ctx, cur, m); ok {
		if err := r.install(snap, m); err != nil {
			return false, err
		}
		r.deltaSyncs.Add(1)
		return true, nil
	}

	blob, err := r.fetchBlob(ctx, m)
	if err != nil {
		return false, err
	}
	r.fetches.Add(1)

	// Verify before swap: the file must decode (magic, bounds, file
	// hash, recomputed content digest vs trailer) and agree with the
	// manifest that named it. Failure discards the bytes — a complete
	// but corrupt download is never worth resuming into.
	snap, info, err := snapfile.Decode(blob)
	if err != nil {
		r.dropPartial()
		return false, fmt.Errorf("%w: %v", ErrVerify, err)
	}
	if info.Epoch != m.Epoch || snap.Digest() != m.Digest {
		r.dropPartial()
		return false, fmt.Errorf("%w: file is epoch %d digest %s, manifest named epoch %d digest %s",
			ErrVerify, info.Epoch, snap.Digest(), m.Epoch, m.Digest)
	}
	if err := r.install(snap, m); err != nil {
		return false, err
	}
	return true, nil
}

// trySyncDelta attempts a delta upgrade from the served epoch to the
// manifest's. ok=false means "use the full fetch" — either we weren't
// eligible (no served epoch, builder doesn't retain it) or the delta
// path failed and was counted as a fallback. Delta bytes are
// self-verifying (file hash, base digest, applied content digest) and
// the result is additionally checked against the manifest, so a bad
// delta can demote us to the full path but never into serving wrong
// bytes.
func (r *Replica) trySyncDelta(ctx context.Context, cur *served, m Manifest) (*geoserve.Snapshot, bool) {
	if cur == nil || cur.snap == nil || cur.epoch >= m.Epoch ||
		!slices.Contains(m.Retained, cur.epoch) {
		return nil, false
	}
	snap, err := r.fetchDelta(ctx, cur, m)
	if err != nil {
		r.deltaFallbacks.Add(1)
		r.mu.Lock()
		r.lastErr = err.Error()
		r.mu.Unlock()
		return nil, false
	}
	return snap, true
}

func (r *Replica) fetchDelta(ctx context.Context, cur *served, m Manifest) (*geoserve.Snapshot, error) {
	resp, err := r.get(ctx, fmt.Sprintf("/v1/replication/delta/%d/%d", cur.epoch, m.Epoch), 0)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A delta bigger than the full file plus slack is either damage or
	// not worth applying; the limit turns it into an Apply failure. The
	// body is read into one buffer sized for its declared length.
	limit := min(m.SizeBytes, math.MaxInt64-1<<20) + 1<<20
	blob, err := geoserve.ReadAllInto(presize(min(resp.ContentLength, limit)), io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("replica: delta fetch interrupted: %w", err)
	}
	snap, info, err := snapfile.Apply(cur.snap, blob)
	if err != nil {
		return nil, fmt.Errorf("%w: delta apply: %v", ErrVerify, err)
	}
	if info.ToEpoch != m.Epoch || snap.Digest() != m.Digest {
		return nil, fmt.Errorf("%w: delta lands on epoch %d digest %s, manifest named epoch %d digest %s",
			ErrVerify, info.ToEpoch, snap.Digest(), m.Epoch, m.Digest)
	}
	return snap, nil
}

// install builds the serving cluster for a verified snapshot, gates
// the swap on the warm-up self-probe, and publishes the bundle
// atomically. A warm-up failure keeps the last-good epoch serving and
// surfaces as warmup_failed in /statusz.
//
// The handler is rebuilt over the replica's one observability bundle
// and nothing is registered: the collector New registered reads
// whichever cluster is current. NewClusterFrom carries the serving
// counters across the swap, so lookup totals, wire traffic, latency
// history and the swap count are monotone whether an epoch arrived as
// a full fetch or a delta apply.
func (r *Replica) install(snap *geoserve.Snapshot, m Manifest) error {
	clu, err := geoserve.NewClusterFrom(snap, geoserve.ClusterConfig{
		Shards:      max(r.cfg.Shards, 1),
		QueueBudget: r.cfg.QueueBudget,
	}, r.Cluster())
	if err != nil {
		return fmt.Errorf("replica: epoch %d does not split into %d shards: %w", m.Epoch, r.cfg.Shards, err)
	}
	if err := r.warmupFn(clu, m.Epoch); err != nil {
		r.warmupFails.Add(1)
		r.warmupFailed.Store(true)
		return fmt.Errorf("replica: epoch %d failed warm-up, keeping epoch %d: %w", m.Epoch, r.Epoch(), err)
	}
	r.warmupFailed.Store(false)
	r.cur.Store(&served{
		cluster: clu,
		handler: geoserve.NewObservedHandler(clu, r.obs),
		snap:    snap,
		epoch:   m.Epoch,
		digest:  m.Digest,
		since:   r.now(),
	})
	r.swaps.Add(1)
	r.mu.Lock()
	r.lastErr = ""
	r.mu.Unlock()
	return nil
}

// selfProbe is the default warm-up gate: a seeded sample of the
// snapshot's own keys (prefix rows and exact addresses) must
// answer through the cluster exactly as the snapshot's row data says,
// with coordinates inside the valid range, and an address outside
// allocated space must come back unmapped. The probe set is drawn from
// the candidate snapshot itself, so it scales with the index and never
// needs external fixtures.
func (r *Replica) selfProbe(clu *geoserve.Cluster, epoch uint64) error {
	if r.cfg.WarmupProbes < 0 {
		return nil
	}
	snap := clu.Snapshot()
	mappers := snap.Mappers()
	if len(mappers) == 0 {
		return errors.New("snapshot names no mappers")
	}
	prefixes, exact := snap.Prefixes(), snap.ExactIPs()
	rr := rng.New(r.cfg.Seed ^ int64(epoch))
	var ips []uint32
	for i := 0; i < r.cfg.WarmupProbes && len(prefixes) > 0; i++ {
		ips = append(ips, prefixes[rr.Intn(len(prefixes))]+uint32(rr.Intn(256)))
	}
	for i := 0; i < r.cfg.WarmupProbes && len(exact) > 0; i++ {
		ips = append(ips, exact[rr.Intn(len(exact))])
	}
	for _, ip := range ips {
		for mi, name := range mappers {
			got := clu.Lookup(mi, ip)
			want := snap.Lookup(mi, ip)
			if got != want {
				return fmt.Errorf("probe %d via %s: cluster answered %+v, snapshot row says %+v", ip, name, got, want)
			}
			if got.Found && !got.Loc.Valid() {
				return fmt.Errorf("probe %d via %s: location %v out of range", ip, name, got.Loc)
			}
		}
	}
	// One probe from the top of the address space, where no interval
	// normally lives: cluster and snapshot must agree there too, so a
	// misaligned index can't claim unallocated space.
	if got, want := clu.Lookup(0, 0xFFFFFFFE), snap.Lookup(0, 0xFFFFFFFE); got != want {
		return fmt.Errorf("out-of-space probe: cluster answered %+v, snapshot row says %+v", got, want)
	}
	return nil
}

// get is the one replication GET: it asks the builder for path — from
// byte rangeFrom on when that is positive — and returns the open
// response for a 200, or for the 206 a ranged request may get. Anything
// else is an error, a 404 marked X-Geo-Gone the typed ErrEpochGone (the
// epoch left the retention window; a fresh manifest cures it).
func (r *Replica) get(ctx context.Context, path string, rangeFrom int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", r.cfg.BuilderURL+path, nil)
	if err != nil {
		return nil, err
	}
	if rangeFrom > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", rangeFrom))
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: GET %s: %w", path, err)
	}
	if resp.StatusCode == http.StatusOK || rangeFrom > 0 && resp.StatusCode == http.StatusPartialContent {
		return resp, nil
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && resp.Header.Get(goneHeader) != "" {
		return nil, fmt.Errorf("%w: GET %s", ErrEpochGone, path)
	}
	return nil, fmt.Errorf("replica: GET %s: status %d", path, resp.StatusCode)
}

func (r *Replica) fetchManifest(ctx context.Context) (Manifest, error) {
	resp, err := r.get(ctx, "/v1/replication/manifest", 0)
	if err != nil {
		return Manifest{}, err
	}
	defer resp.Body.Close()
	var m Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("replica: manifest decode: %w", err)
	}
	if m.Epoch == 0 || m.SizeBytes <= 0 {
		return Manifest{}, fmt.Errorf("replica: manifest names epoch %d size %d", m.Epoch, m.SizeBytes)
	}
	r.lastContact.Store(r.now().UnixNano())
	return m, nil
}

// fetchBlob downloads the manifest's snapshot file, resuming a
// matching partial download via a Range request. On failure the bytes
// read so far are retained for the next attempt; on success the
// partial is consumed.
func (r *Replica) fetchBlob(ctx context.Context, m Manifest) ([]byte, error) {
	r.mu.Lock()
	if r.partialEpoch != m.Epoch || r.partialDigest != m.Digest {
		r.partial, r.partialEpoch, r.partialDigest = nil, m.Epoch, m.Digest
	}
	buf := r.partial
	r.mu.Unlock()

	rangeFrom := 0
	if int64(len(buf)) < m.SizeBytes {
		rangeFrom = len(buf)
	}
	resp, err := r.get(ctx, fmt.Sprintf("/v1/replication/snapshot/%d", m.Epoch), rangeFrom)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusPartialContent {
		r.resumes.Add(1)
	} else {
		buf = buf[:0] // full body (server ignored or was not sent Range)
	}
	if len(buf) == 0 {
		n := m.SizeBytes
		if resp.ContentLength >= 0 {
			n = min(n, resp.ContentLength)
		}
		buf = presize(n)
	}

	// Read at most what the manifest promised (+1 to detect overruns);
	// whatever lands in buf survives this attempt for resumption.
	rest := min(m.SizeBytes-int64(len(buf)), math.MaxInt64-1) + 1
	buf, err = geoserve.ReadAllInto(buf, io.LimitReader(resp.Body, rest))
	if err != nil {
		r.savePartial(buf)
		return nil, fmt.Errorf("replica: snapshot fetch interrupted at %d/%d bytes: %w",
			len(buf), m.SizeBytes, err)
	}
	if int64(len(buf)) < m.SizeBytes {
		r.savePartial(buf)
		return nil, fmt.Errorf("%w: snapshot fetch delivered %d/%d bytes",
			snapfile.ErrTruncated, len(buf), m.SizeBytes)
	}
	if int64(len(buf)) > m.SizeBytes {
		r.dropPartial()
		return nil, fmt.Errorf("replica: snapshot fetch overran the manifest size %d", m.SizeBytes)
	}
	r.dropPartial()
	return buf, nil
}

// maxPresize caps the buffer a fetch allocates before a byte arrives:
// the sizes it is told come over the network, so a body larger than
// this grows its buffer as it lands.
const maxPresize = 64 << 20

// presize returns an empty buffer for a body of n bytes (none when n
// is negative, an unknown length), with the byte that lets EOF arrive
// without a regrow.
func presize(n int64) []byte {
	if n < 0 {
		return nil
	}
	return make([]byte, 0, min(n, maxPresize)+1)
}

func (r *Replica) savePartial(buf []byte) {
	r.mu.Lock()
	r.partial = buf
	r.mu.Unlock()
}

func (r *Replica) dropPartial() {
	r.mu.Lock()
	r.partial = nil
	r.mu.Unlock()
}

// Drain flips the replica into its draining state: /healthz starts
// failing (so routers stop planning new work here), queries already in
// flight — and any that race in before the routers notice — are still
// answered from the current epoch. The process exits once
// Status().InFlight reaches zero (cmd/geoserved couples this to
// http.Server.Shutdown).
func (r *Replica) Drain() { r.draining.Store(true) }

// Status is the replica's /statusz shape: replication state plus the
// serving cluster's own metrics when an epoch is loaded.
type Status struct {
	// State is "empty" until the first verified epoch, then "serving";
	// "draining" after Drain regardless of epoch.
	State      string `json:"state"`
	BuilderURL string `json:"builder_url"`
	Epoch      uint64 `json:"epoch"`
	Digest     string `json:"digest,omitempty"`
	// StaleEpoch is true when an epoch is being served but the builder
	// has not been reached within StaleAfter — the replica keeps
	// serving, degraded and saying so.
	StaleEpoch bool `json:"stale_epoch"`
	// EpochAgeSeconds is time since the served epoch was installed (0
	// before the first).
	EpochAgeSeconds float64 `json:"epoch_age_seconds"`
	// SecondsSinceContact is time since the last successful manifest
	// read (-1 before the first).
	SecondsSinceContact float64 `json:"seconds_since_contact"`
	Fetches             uint64  `json:"fetches"`
	FetchFailures       uint64  `json:"fetch_failures"`
	Resumes             uint64  `json:"resumes"`
	Swaps               uint64  `json:"swaps"`
	// DeltaSyncs counts epochs reached by applying a .snapdelta;
	// DeltaFallbacks counts delta attempts that demoted to a full
	// fetch.
	DeltaSyncs     uint64 `json:"delta_syncs"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
	// WarmupFailed is true while the most recent install attempt was
	// rejected by the warm-up self-probe (the epoch before it is still
	// serving); WarmupFailures counts rejections over the process
	// lifetime.
	// EpochGoneRaces counts retention-window races (the epoch a
	// manifest named was pruned before we fetched it) recovered by
	// re-reading the manifest; they are not fetch failures.
	EpochGoneRaces uint64 `json:"epoch_gone_races"`
	WarmupFailed   bool   `json:"warmup_failed"`
	WarmupFailures uint64 `json:"warmup_failures"`
	InFlight       int64  `json:"in_flight"`
	LastError      string `json:"last_error,omitempty"`

	Serving *geoserve.Status `json:"serving,omitempty"`
}

// Status snapshots the replica's replication state.
func (r *Replica) Status() Status {
	cur := r.cur.Load()
	st := Status{
		State:               "empty",
		BuilderURL:          r.cfg.BuilderURL,
		SecondsSinceContact: -1,
		Fetches:             r.fetches.Load(),
		FetchFailures:       r.failures.Load(),
		Resumes:             r.resumes.Load(),
		Swaps:               r.swaps.Load(),
		DeltaSyncs:          r.deltaSyncs.Load(),
		DeltaFallbacks:      r.deltaFallbacks.Load(),
		EpochGoneRaces:      r.epochGone.Load(),
		WarmupFailed:        r.warmupFailed.Load(),
		WarmupFailures:      r.warmupFails.Load(),
		InFlight:            r.inflight.Load(),
	}
	r.mu.Lock()
	st.LastError = r.lastErr
	r.mu.Unlock()
	sinceContact, stale := r.contact()
	if sinceContact >= 0 {
		st.SecondsSinceContact = sinceContact.Seconds()
	}
	if cur != nil {
		st.State = "serving"
		st.Epoch = cur.epoch
		st.Digest = cur.digest
		st.StaleEpoch = stale
		st.EpochAgeSeconds = r.now().Sub(cur.since).Seconds()
		cs := cur.cluster.Status()
		st.Serving = &cs
	}
	if r.draining.Load() {
		st.State = "draining"
	}
	return st
}

// contact reports how long ago the builder last answered a manifest
// read (-1 if it never has) and whether that is too long ago for a
// served epoch to count as fresh.
func (r *Replica) contact() (since time.Duration, stale bool) {
	last := r.lastContact.Load()
	if last <= 0 {
		return -1, true
	}
	since = r.now().Sub(time.Unix(0, last))
	return since, since > r.cfg.StaleAfter
}

// Handler serves the full geoserve HTTP API from the current epoch,
// tagging every answer with X-Geo-Epoch/X-Geo-Digest response headers
// (epoch and handler publish atomically together, so the tag always
// matches the snapshot that answered). /statusz and /healthz are
// replication-aware; before the first verified epoch every other path
// answers 503 with a Retry-After.
func (r *Replica) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/statusz":
			writeJSON(w, r.Status())
			return
		case "/healthz":
			r.serveHealthz(w)
			return
		// The observability endpoints answer from the replica's own
		// bundle even before the first sync (and identically after —
		// the per-epoch handler mounts the same registry and ring), so
		// a replica that cannot sync is still scrapeable.
		case "/metrics":
			r.obs.Metrics.Handler().ServeHTTP(w, req)
			return
		case "/debug/tracez":
			r.obs.Traces.Handler().ServeHTTP(w, req)
			return
		}
		cur := r.cur.Load()
		if cur == nil {
			w.Header().Set("Retry-After", "1")
			httpJSONError(w, http.StatusServiceUnavailable, "no snapshot epoch loaded yet (builder %s)", r.cfg.BuilderURL)
			return
		}
		// Queries are answered even while draining — the health probe
		// steers new traffic away, but anything that raced in still
		// gets a real answer from the current epoch.
		r.inflight.Add(1)
		defer r.inflight.Add(-1)
		w.Header().Set("X-Geo-Epoch", strconv.FormatUint(cur.epoch, 10))
		w.Header().Set("X-Geo-Digest", cur.digest)
		cur.handler.ServeHTTP(w, req)
	})
}

// healthzBody is what the router's health probe reads.
type healthzBody struct {
	Status     string                `json:"status"`
	Epoch      uint64                `json:"epoch"`
	Digest     string                `json:"digest,omitempty"`
	StaleEpoch bool                  `json:"stale_epoch"`
	Snapshot   geoserve.SnapshotInfo `json:"snapshot,omitzero"`
}

// serveHealthz answers from one load of the served epoch, so the epoch,
// its digest and the snapshot summary always name the same one, and a
// probe costs no status build.
func (r *Replica) serveHealthz(w http.ResponseWriter) {
	body := healthzBody{Status: "ok"}
	cur := r.cur.Load()
	if cur != nil {
		body.Epoch, body.Digest = cur.epoch, cur.digest
		_, body.StaleEpoch = r.contact()
		body.Snapshot = cur.cluster.SnapshotInfo()
	}
	switch {
	case r.draining.Load():
		// Draining fails the probe on purpose: routers eject this
		// replica and the remaining in-flight work finishes untouched.
		body.Status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	case cur == nil:
		body.Status = "empty"
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, body)
}
