// Package replica is the multi-node replication tier over geoserve
// snapshots: a builder node publishes digest-checked snapshot epochs
// over HTTP, replica nodes run a fetch → verify → swap loop against
// it, and a thin router fans lookups out over the replicas without
// ever blending epochs inside one answer set. See DESIGN.md
// ("Replicated serving") for the consistency rules and the
// degraded-mode matrix.
package replica

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

// DefaultRetain is how many epochs the publisher keeps around for
// delta serving when the caller doesn't say otherwise. A replica more
// than DefaultRetain-1 epochs behind falls back to a full fetch.
const DefaultRetain = 4

// Manifest describes the builder's current epoch: what a replica
// decides from and verifies against. Digest is the snapshot content
// digest the fetched file must reassemble to, and SizeBytes that
// file's exact length. Retained lists every
// epoch the builder can still diff from, newest last; a replica whose
// current epoch appears in it (other than the newest) may ask for a
// delta instead of the whole file.
type Manifest struct {
	Epoch         uint64             `json:"epoch"`
	Digest        string             `json:"digest"`
	SizeBytes     int64              `json:"size_bytes"`
	FormatVersion uint32             `json:"format_version"`
	Build         geoserve.BuildInfo `json:"build"`
	// PublishedUnix is when the builder published this epoch.
	PublishedUnix int64    `json:"published_unix"`
	Retained      []uint64 `json:"retained,omitempty"`
}

// pubEpoch is one retained epoch: its manifest, the snapshot deltas
// are diffed from, and its snapfile, encoded on the first GET.
type pubEpoch struct {
	manifest Manifest
	snap     *geoserve.Snapshot
	file     *artifact
}

type deltaKey struct{ from, to uint64 }

// artifact is one replication blob — an epoch's snapfile or a delta
// between two epochs — built by the first request that needs it,
// outside Publisher.mu: concurrent requests for the same artifact wait
// for that one build, and nothing else waits at all.
type artifact struct {
	once  sync.Once
	build func() ([]byte, error) // dropped once run
	blob  []byte
	err   error
}

func (a *artifact) bytes() ([]byte, error) {
	a.once.Do(func() {
		a.blob, a.err = a.build()
		a.build = nil
	})
	return a.blob, a.err
}

// buildArtifact makes an artifact's bytes: target's snapfile at epoch
// to when base is nil, else the delta from base at epoch from.
func buildArtifact(base, target *geoserve.Snapshot, from, to uint64) ([]byte, error) {
	if base == nil {
		return snapfile.Encode(target, to)
	}
	return snapfile.Diff(base, target, from, to)
}

// Publisher is the builder-side replication surface: it retains the
// snapshots of the last few epochs and serves
//
//	GET /v1/replication/manifest             the current Manifest
//	GET /v1/replication/snapshot/{epoch}     the epoch's snapfile bytes
//	                                         (Range supported, so
//	                                         interrupted fetches resume)
//	GET /v1/replication/delta/{from}/{to}    a .snapdelta upgrading a
//	                                         retained epoch to a newer one
//
// Publish costs no encoding: the manifest names the file's size
// (snapfile.EncodedSize), and epochs are dense integers from 1. A file
// is encoded on its first GET, and a delta diffed on its first request,
// each once and outside the publisher's lock; both are cached until
// their epoch (either endpoint, for a delta) is pruned. An epoch that
// replicas only ever reach by delta is never encoded at all.
type Publisher struct {
	mu     sync.RWMutex
	epochs []pubEpoch // ascending by epoch; last is current
	retain int
	deltas map[deltaKey]*artifact
	// now is stubbed in tests.
	now func() time.Time
	// build makes every artifact's bytes (buildArtifact); tests
	// substitute it to count and hold builds.
	build func(base, target *geoserve.Snapshot, from, to uint64) ([]byte, error)
}

// NewPublisher starts with no epoch; the manifest endpoint answers 503
// until the first Publish. The retention window starts at
// DefaultRetain.
func NewPublisher() *Publisher {
	return &Publisher{now: time.Now, retain: DefaultRetain, deltas: map[deltaKey]*artifact{}, build: buildArtifact}
}

// SetRetain resizes the retention window (minimum 1, the current
// epoch) and prunes immediately if it shrank.
func (p *Publisher) SetRetain(k int) {
	if k < 1 {
		k = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retain = k
	p.pruneLocked()
}

// Publish makes the snapshot the next epoch, the one the manifest
// advertises; epochs older than the retention window drop out along
// with their files and any cached deltas touching them. Returns the
// new manifest.
//
// Publishes dedupe by content digest: a snapshot identical to the
// current epoch's (a churn step that recompiled to the same answers)
// returns the current manifest unchanged instead of allocating a new
// epoch — a republish of identical content must not force fleet-wide
// re-fetch and warm-up.
func (p *Publisher) Publish(snap *geoserve.Snapshot) (Manifest, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	epoch := uint64(1)
	if n := len(p.epochs); n > 0 {
		if p.epochs[n-1].manifest.Digest == snap.Digest() {
			return p.manifestLocked(), nil
		}
		epoch = p.epochs[n-1].manifest.Epoch + 1
	}
	p.epochs = append(p.epochs, pubEpoch{
		manifest: Manifest{
			Epoch:         epoch,
			Digest:        snap.Digest(),
			SizeBytes:     int64(snapfile.EncodedSize(snap)),
			FormatVersion: snapfile.FormatVersion,
			Build:         snap.Build(),
			PublishedUnix: p.now().Unix(),
		},
		snap: snap,
		file: p.newArtifact(nil, snap, 0, epoch),
	})
	p.pruneLocked()
	return p.manifestLocked(), nil
}

func (p *Publisher) pruneLocked() {
	for len(p.epochs) > p.retain {
		gone := p.epochs[0].manifest.Epoch
		p.epochs = p.epochs[1:]
		for k := range p.deltas {
			if k.from == gone || k.to == gone {
				delete(p.deltas, k)
			}
		}
	}
}

// manifestLocked stamps the retained-epoch list onto the newest
// epoch's manifest.
func (p *Publisher) manifestLocked() Manifest {
	m := p.epochs[len(p.epochs)-1].manifest
	m.Retained = make([]uint64, len(p.epochs))
	for i, e := range p.epochs {
		m.Retained[i] = e.manifest.Epoch
	}
	return m
}

// Manifest returns the current manifest; ok=false before the first
// Publish.
func (p *Publisher) Manifest() (Manifest, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.epochs) == 0 {
		return Manifest{}, false
	}
	return p.manifestLocked(), true
}

func (p *Publisher) epochLocked(epoch uint64) (pubEpoch, bool) {
	for _, e := range p.epochs {
		if e.manifest.Epoch == epoch {
			return e, true
		}
	}
	return pubEpoch{}, false
}

var errDeltaGone = errors.New("delta endpoints not retained")

// goneHeader marks a replication 404 as typed: the requested epoch was
// real but has left the retention window (pruned mid-poll, typically —
// the manifest a replica decided from went stale between its read and
// its fetch). Replicas distinguish it from transport-level failures:
// a gone epoch is a benign race to recover from by re-reading the
// manifest, not an error that should consume retry budget or trip a
// circuit breaker.
const goneHeader = "X-Geo-Gone"

// newArtifact returns an unbuilt artifact whose bytes p.build makes.
func (p *Publisher) newArtifact(base, target *geoserve.Snapshot, from, to uint64) *artifact {
	return &artifact{build: func() ([]byte, error) { return p.build(base, target, from, to) }}
}

// delta returns (and caches) the .snapdelta from one retained epoch to
// a newer retained one. Only finding or adding its cache entry holds
// p.mu; the diff runs after.
func (p *Publisher) delta(from, to uint64) ([]byte, error) {
	if from >= to {
		return nil, errDeltaGone
	}
	k := deltaKey{from, to}
	p.mu.Lock()
	a, ok := p.deltas[k]
	if !ok {
		base, okF := p.epochLocked(from)
		target, okT := p.epochLocked(to)
		if !okF || !okT {
			p.mu.Unlock()
			return nil, errDeltaGone
		}
		a = p.newArtifact(base.snap, target.snap, from, to)
		p.deltas[k] = a
	}
	p.mu.Unlock()
	return a.bytes()
}

// Handler serves the replication endpoints. Mount it on the builder's
// mux alongside the ordinary serving API.
func (p *Publisher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/manifest", func(w http.ResponseWriter, r *http.Request) {
		m, ok := p.Manifest()
		if !ok {
			httpJSONError(w, http.StatusServiceUnavailable, "no epoch published yet")
			return
		}
		writeJSON(w, m)
	})
	mux.HandleFunc("GET /v1/replication/snapshot/{epoch}", func(w http.ResponseWriter, r *http.Request) {
		epoch, err := strconv.ParseUint(r.PathValue("epoch"), 10, 64)
		if err != nil {
			httpJSONError(w, http.StatusBadRequest, "bad epoch %q", r.PathValue("epoch"))
			return
		}
		p.mu.RLock()
		e, ok := p.epochLocked(epoch)
		empty := len(p.epochs) == 0
		var current uint64
		if !empty {
			current = p.epochs[len(p.epochs)-1].manifest.Epoch
		}
		p.mu.RUnlock()
		if empty {
			httpJSONError(w, http.StatusServiceUnavailable, "no epoch published yet")
			return
		}
		if !ok {
			// Pruned epochs are gone for good; a replica asking for one
			// re-reads the manifest and fetches fresh.
			w.Header().Set(goneHeader, "1")
			httpJSONError(w, http.StatusNotFound, "epoch %d gone (current %d)", epoch, current)
			return
		}
		blob, err := e.file.bytes()
		if err != nil {
			httpJSONError(w, http.StatusInternalServerError, "epoch %d: %v", epoch, err)
			return
		}
		m := e.manifest
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Geo-Epoch", strconv.FormatUint(m.Epoch, 10))
		w.Header().Set("X-Geo-Digest", m.Digest)
		// ServeContent supplies Range handling, so interrupted
		// downloads resume instead of restarting.
		http.ServeContent(w, r, "snapshot.snap", time.Unix(m.PublishedUnix, 0), bytes.NewReader(blob))
	})
	mux.HandleFunc("GET /v1/replication/delta/{from}/{to}", func(w http.ResponseWriter, r *http.Request) {
		from, errF := strconv.ParseUint(r.PathValue("from"), 10, 64)
		to, errT := strconv.ParseUint(r.PathValue("to"), 10, 64)
		if errF != nil || errT != nil {
			httpJSONError(w, http.StatusBadRequest, "bad delta endpoints %q..%q", r.PathValue("from"), r.PathValue("to"))
			return
		}
		blob, err := p.delta(from, to)
		if err != nil {
			// Anything we can't diff — pruned base, reversed range,
			// mapper-set change between epochs — is a 404; the replica
			// falls back to the full snapshot endpoint. A pruned
			// endpoint is additionally typed as gone so the fallback
			// doesn't bill the retention race as a failure.
			if errors.Is(err, errDeltaGone) {
				w.Header().Set(goneHeader, "1")
			}
			httpJSONError(w, http.StatusNotFound, "no delta %d..%d: %v", from, to, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Geo-Epoch", strconv.FormatUint(to, 10))
		http.ServeContent(w, r, "snapshot.snapdelta", time.Time{}, bytes.NewReader(blob))
	})
	return mux
}
