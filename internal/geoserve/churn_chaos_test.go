package geoserve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geonet/internal/core"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// wireEpochTag reproduces the wire protocol's epoch tag for a
// snapshot: the first 8 bytes of its content digest, big-endian.
func wireEpochTag(tb testing.TB, snap *geoserve.Snapshot) uint64 {
	tb.Helper()
	raw, err := hex.DecodeString(snap.Digest()[:16])
	if err != nil {
		tb.Fatalf("digest %q: %v", snap.Digest(), err)
	}
	return binary.BigEndian.Uint64(raw)
}

// TestChurnWireChaos races sustained binary-wire batches against a
// continuous churn stream: while worker goroutines hammer a sharded
// cluster's POST /v1/locate/bin, the main goroutine delta-swaps the
// cluster through a 10-step churn chain. Three invariants under the
// race, with -race watching the implementation:
//
//  1. every response frame's epoch tag is one of the chain's published
//     epochs — never a tag the cluster was never asked to serve;
//  2. every answer in a frame equals the tagged snapshot's own row for
//     that address — one batch, one epoch, zero blended frames;
//  3. the workers actually observed the world moving (more than one
//     distinct tag), so the race is real, not a fixture accident.
func TestChurnWireChaos(t *testing.T) {
	const (
		chaosSteps   = 10
		chaosEvents  = 8
		chaosSeed    = 13
		chaosWorkers = 4
		batchSize    = 64
	)
	p, base := fixture(t)

	// Precompute the churn chain so the serving race below applies
	// steps back-to-back instead of paying a compile per swap.
	type epoch struct {
		snap    *geoserve.Snapshot
		touched []uint32
	}
	ch, err := p.Churner(core.ServeOptions{}, chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	chain := make([]epoch, 0, chaosSteps)
	byTag := map[uint64]*geoserve.Snapshot{wireEpochTag(t, base): base}
	prev := base
	for i := 0; i < chaosSteps; i++ {
		step, err := ch.Next(chaosEvents)
		if err != nil {
			t.Fatal(err)
		}
		next, stats, err := p.ServeDelta(prev, step)
		if err != nil {
			t.Fatalf("step %d: %v", step.N, err)
		}
		chain = append(chain, epoch{snap: next, touched: stats.Touched})
		byTag[wireEpochTag(t, next)] = next
		prev = next
	}

	cluster, err := geoserve.NewCluster(base, geoserve.ClusterConfig{Shards: 4, QueueBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	handler := geoserve.NewHandler(cluster)

	// Addresses are drawn from the final snapshot's /24 index — a
	// superset of every earlier epoch's — plus its exact rows, so
	// batches cross both churned and untouched intervals; in an epoch
	// where an address does not exist yet, the tagged snapshot's own
	// miss row is the required answer.
	prefixes, exact := prev.Prefixes(), prev.ExactIPs()
	mappers := len(base.Mappers())

	var (
		stop    atomic.Bool
		batches atomic.Uint64
		shed    atomic.Uint64
		tagsMu  sync.Mutex
		tags    = map[uint64]struct{}{}
		wg      sync.WaitGroup
	)
	for w := 0; w < chaosWorkers; w++ {
		r := rng.New(chaosSeed).SplitN("chaos-worker", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ips := make([]uint32, batchSize)
			seen := map[uint64]struct{}{}
			for n := 0; !stop.Load(); n++ {
				for i := range ips {
					if i%4 == 0 && len(exact) > 0 {
						ips[i] = exact[r.Intn(len(exact))]
					} else {
						ips[i] = prefixes[r.Intn(len(prefixes))] + uint32(r.Intn(256))
					}
				}
				mapper := uint16(n % mappers)
				req := geoserve.AppendWireBatchRequest(nil, mapper, ips)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate/bin", bytes.NewReader(req)))
				if rec.Code == http.StatusTooManyRequests {
					shed.Add(1)
					continue
				}
				if rec.Code != http.StatusOK {
					t.Errorf("batch status %d: %s", rec.Code, rec.Body.String())
					return
				}
				gotMapper, tag, answers, err := geoserve.DecodeWireBatch(rec.Body.Bytes())
				if err != nil {
					t.Errorf("decode batch: %v", err)
					return
				}
				if int(gotMapper) != int(mapper) {
					t.Errorf("mapper echo %d, want %d", gotMapper, mapper)
					return
				}
				snap, ok := byTag[tag]
				if !ok {
					t.Errorf("frame tagged %016x: not a published epoch", tag)
					return
				}
				if len(answers) != len(ips) {
					t.Errorf("%d answers for %d addresses", len(answers), len(ips))
					return
				}
				for i, a := range answers {
					if want := snap.Lookup(int(mapper), ips[i]); a != want {
						t.Errorf("blended batch: answer %d under epoch %016x is %+v, tagged snapshot says %+v",
							i, tag, a, want)
						return
					}
				}
				seen[tag] = struct{}{}
				batches.Add(1)
			}
			tagsMu.Lock()
			for tag := range seen {
				tags[tag] = struct{}{}
			}
			tagsMu.Unlock()
		}()
	}

	// The churn stream: delta-swap through every epoch while the
	// workers run. Swaps are paced on batch progress, not wall-clock
	// sleeps: each epoch stays serving until a few more batches have
	// landed, so every epoch is actually observed under fire and the
	// test never races its own warm-up.
	waitBatches := func(target uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for batches.Load() < target && !t.Failed() {
			if time.Now().After(deadline) {
				t.Errorf("stalled at %d batches waiting for %d (%d shed)", batches.Load(), target, shed.Load())
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i, e := range chain {
		waitBatches(batches.Load() + 2)
		if t.Failed() {
			break
		}
		if _, _, err := cluster.SwapDelta(e.snap, e.touched); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("step %d: SwapDelta: %v", i+1, err)
		}
	}
	waitBatches(batches.Load() + 2)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if n := batches.Load(); n < chaosWorkers {
		t.Fatalf("only %d successful batches landed (%d shed); the race never ran", n, shed.Load())
	}
	if len(tags) < 2 {
		t.Fatalf("workers saw %d distinct epoch tags across %d batches; want the swap visible under load",
			len(tags), batches.Load())
	}
	if got := cluster.Snapshot().Digest(); got != prev.Digest() {
		t.Fatalf("cluster finished on %s, want final chain epoch %s", got, prev.Digest())
	}
	t.Logf("chaos: %d batches (%d shed) across %d distinct epochs", batches.Load(), shed.Load(), len(tags))
}
