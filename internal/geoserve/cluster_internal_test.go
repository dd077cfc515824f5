package geoserve

// Internal cluster tests over small synthetic snapshots: the split
// rule, routing, load-shedding and the epoch guard are all checkable
// without building a pipeline, so these run in microseconds and can
// reach into the unexported machinery (shard inflight counters, the
// published view).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/geo"
)

// syntheticSnapshot builds a deterministic in-memory snapshot:
// nPrefixes spaced /24s starting at start, two exact addresses in
// every third prefix, and per-mapper entries whose content varies by
// index so distinct snapshots get distinct digests.
func syntheticSnapshot(start uint32, nPrefixes, nMappers int, salt float64) *Snapshot {
	var h Header
	var prefixes, ips []uint32
	for m := 0; m < nMappers; m++ {
		h.Mappers = append(h.Mappers, fmt.Sprintf("m%d", m))
	}
	for i := 0; i < nPrefixes; i++ {
		// Spaced, ascending, low byte zero.
		prefixes = append(prefixes, start+uint32(i)*7*256)
	}
	for i := 0; i < nPrefixes; i += 3 {
		ips = append(ips, prefixes[i]+1, prefixes[i]+200)
	}
	put := func(rec []byte, m, i int, exact bool) {
		a := Answer{
			Exact:    exact,
			RadiusMi: float64(i%50) * 10,
			ASN:      1 + i%7,
		}
		if a.Found = i%5 != 0; a.Found {
			a.Loc = geo.Point{Lat: float64(i%90) + salt, Lon: float64(m*10+i%180) - 90}
			a.Method = methodNames[1+(m+i)%int(numMethods-1)]
		}
		if exact {
			a.RadiusMi += 1
		}
		if err := PutRecord(rec, a); err != nil {
			panic(err)
		}
	}
	h.Footprints = make([][]analysis.ASFootprint, nMappers)
	var slabs [][]byte
	for m := 0; m < nMappers; m++ {
		slab := make([]byte, (len(prefixes)+len(ips))*RecordSize)
		for i := range prefixes {
			put(slab[i*RecordSize:], m, i, false)
		}
		for i := range ips {
			put(slab[(len(prefixes)+i)*RecordSize:], m, i, true)
		}
		slabs = append(slabs, slab)
	}
	snap, err := DeriveSlabs(h, prefixes, ips, slabs)
	if err != nil {
		panic(err)
	}
	return snap
}

// probeAddrs is a deterministic address set exercising every lookup
// path: exact hits, prefix-level answers at both block edges, gaps
// between allocated /24s, and the space below/above the index.
func probeAddrs(s *Snapshot) []uint32 {
	var ps []uint32
	prefixes := s.Prefixes()
	for _, base := range prefixes {
		ps = append(ps, base, base+1, base+127, base+255, base+256, base+512)
	}
	ps = append(ps, s.ExactIPs()...)
	ps = append(ps, 0, 1, prefixes[0]-1, 0xF0000001, 0xFFFFFFFF)
	return ps
}

func TestSplitBalancedAndPartitions(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	allPrefixes, allIPs := snap.Prefixes(), snap.ExactIPs()
	for _, n := range []int{1, 2, 3, 8, 23} {
		starts, err := splitSnapshot(snap, n)
		if err != nil {
			t.Fatalf("split %d: %v", n, err)
		}
		if len(starts) != n {
			t.Fatalf("split %d: got %d shards", n, len(starts))
		}
		if starts[0] != 0 {
			t.Fatalf("split %d: starts[0] = %d, want 0", n, starts[0])
		}
		totalPrefixes, totalIPs := 0, 0
		prevHi := uint32(0)
		for i := range starts {
			lo, hi, prefixes, exactIPs := shardRange(snap, starts, i)
			if lo != starts[i] {
				t.Fatalf("split %d: shard %d range starts at %d, want %d", n, i, lo, starts[i])
			}
			// Balance: every shard within one prefix of the ideal cut.
			if least := len(allPrefixes) / n; prefixes < least || prefixes > least+1 {
				t.Fatalf("split %d: shard %d owns %d prefixes, want %d or %d", n, i, prefixes, least, least+1)
			}
			// Ranges tile the address space contiguously.
			if i > 0 && lo != prevHi+1 {
				t.Fatalf("split %d: shard %d range starts at %d, prev ends at %d", n, i, lo, prevHi)
			}
			prevHi = hi
			// The range's counts are consecutive runs of the snapshot's
			// sorted arrays; every member falls inside the range and
			// routes to this shard.
			for _, p := range allPrefixes[totalPrefixes : totalPrefixes+prefixes] {
				if p < lo || p > hi || shardIndexOf(starts, p) != i {
					t.Fatalf("split %d: shard %d prefix %d outside [%d, %d]", n, i, p, lo, hi)
				}
			}
			for _, ip := range allIPs[totalIPs : totalIPs+exactIPs] {
				if ip < lo || ip > hi || shardIndexOf(starts, ip) != i {
					t.Fatalf("split %d: shard %d ip %d outside range", n, i, ip)
				}
			}
			totalPrefixes += prefixes
			totalIPs += exactIPs
		}
		if prevHi != 0xFFFFFFFF {
			t.Fatalf("split %d: last shard ends at %d", n, prevHi)
		}
		if totalPrefixes != len(allPrefixes) || totalIPs != len(allIPs) {
			t.Fatalf("split %d: shards cover %d prefixes / %d ips, want %d / %d",
				n, totalPrefixes, totalIPs, len(allPrefixes), len(allIPs))
		}
	}
}

func TestSplitErrors(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 5, 1, 0)
	for _, n := range []int{0, -1, 6, maxShards + 1} {
		if _, err := splitSnapshot(snap, n); err == nil {
			t.Errorf("splitSnapshot(%d shards over 5 prefixes) should fail", n)
		}
	}
	if _, err := NewCluster(snap, ClusterConfig{Shards: 9}); err == nil {
		t.Error("NewCluster with more shards than prefixes should fail")
	}
	// One shard is the unsharded server: it takes any snapshot, an
	// empty one included, and misses everywhere on it.
	empty := &Snapshot{}
	empty.seal(nil)
	c, err := NewCluster(empty, ClusterConfig{Shards: 1})
	if err != nil {
		t.Fatalf("NewCluster(empty, 1 shard): %v", err)
	}
	if got := c.Lookup(0, 0x0A000001); got != (Answer{IP: 0x0A000001}) {
		t.Errorf("empty snapshot answered %+v", got)
	}
	if _, err := NewCluster(empty, ClusterConfig{Shards: 2}); err == nil {
		t.Error("NewCluster(empty, 2 shards) should fail")
	}
}

// TestClusterMatchesSnapshotSynthetic checks byte-level answer
// equality between the cluster and the raw snapshot for every probe
// address, mapper and shard count — the in-process core of the
// shard-count-invariance golden.
func TestClusterMatchesSnapshotSynthetic(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	probes := probeAddrs(snap)
	for _, n := range []int{1, 2, 3, 8} {
		c, err := NewCluster(snap, ClusterConfig{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		for m := range snap.mappers {
			for _, ip := range probes {
				if got, want := c.Lookup(m, ip), snap.Lookup(m, ip); got != want {
					t.Fatalf("shards=%d mapper=%d ip=%d: cluster %+v != snapshot %+v", n, m, ip, got, want)
				}
			}
		}
		// Out-of-range mapper answers the zero-valued miss either way.
		if got, want := c.Lookup(99, probes[0]), snap.Lookup(99, probes[0]); got != want {
			t.Fatalf("shards=%d: bad-mapper answers differ", n)
		}
	}
}

func TestClusterBatchMatchesSingle(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	probes := probeAddrs(snap)
	c, err := NewCluster(snap, ClusterConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Answer, len(probes))
	digest, err := c.LookupBatch(1, probes, out)
	if err != nil {
		t.Fatal(err)
	}
	if digest != snap.Digest() {
		t.Fatalf("batch digest %s != snapshot %s", digest, snap.Digest())
	}
	for i, ip := range probes {
		if want := snap.Lookup(1, ip); out[i] != want {
			t.Fatalf("batch[%d] = %+v, want %+v", i, out[i], want)
		}
	}
	// Named resolution path.
	if _, _, ok, _ := c.locateBatch("nope", probes[:2], out[:2], nil); ok {
		t.Fatal("unknown mapper accepted")
	}
	if got, idx, ok, err := c.locateBatch("m1", probes[:2], out[:2], nil); got != snap || idx != 1 || !ok || err != nil {
		t.Fatalf("locateBatch(m1) = %p, %d, %v, %v", got, idx, ok, err)
	}
	if _, err := c.LookupBatch(0, probes, out[:1]); err == nil {
		t.Fatal("short out buffer accepted")
	}
	// Empty batches are a no-op, not a panic.
	if digest, err := c.LookupBatch(0, nil, nil); err != nil || digest != snap.Digest() {
		t.Fatalf("empty batch: %s, %v", digest, err)
	}
}

// TestClusterShed pins the load-shedding policy and the per-range
// accounting of batches: a batch touching a shard range whose in-flight
// queue is at budget is rejected whole (no partial work, nothing
// charged), the range and the coordinator count the shed, a range
// holding none of a batch's addresses is neither charged nor admitted
// against, the empty batch touches nothing, and a served batch whose
// addresses fall k0/k1/k2 into the three ranges charges them exactly
// that, with exact method totals.
func TestClusterShed(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 1, 0)
	c, err := NewCluster(snap, ClusterConfig{Shards: 3, QueueBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c)
	starts := c.view.Load().starts
	probes := probeAddrs(snap) // spans all shards
	out := make([]Answer, len(probes))

	// What the counters must read: lookups per range and per method.
	var wantShard [3]uint64
	wantMethods := map[string]uint64{}
	charge := func(ips []uint32) {
		for _, ip := range ips {
			wantShard[shardIndexOf(starts, ip)]++
			key := snap.Lookup(0, ip).Method
			if key == "" {
				key = "unmapped"
			}
			wantMethods[key]++
		}
	}
	check := func(when string) {
		t.Helper()
		s := scrapeSums(t, h,
			`geoserve_shard_lookups_total{shard="0"}`, `geoserve_shard_lookups_total{shard="1"}`,
			`geoserve_shard_lookups_total{shard="2"}`, "geoserve_requests_total", "geoserve_lookups_total")
		if [3]uint64(s[:3]) != wantShard {
			t.Fatalf("%s: geoserve_shard_lookups_total reads %v, want %v", when, s[:3], wantShard)
		}
		if sum := wantShard[0] + wantShard[1] + wantShard[2]; s[3] != sum || s[4] != sum {
			t.Fatalf("%s: requests_total %d, lookups_total %d, want both %d", when, s[3], s[4], sum)
		}
		got := c.Status().Methods["m0"]
		if len(got) != len(wantMethods) {
			t.Fatalf("%s: method counts %v, want %v", when, got, wantMethods)
		}
		for k, n := range wantMethods {
			if got[k] != n {
				t.Fatalf("%s: method counts %v, want %v", when, got, wantMethods)
			}
		}
	}
	inflight := func(when string, want ...int64) {
		t.Helper()
		for i, sh := range c.shards {
			if got := sh.inflight.Load(); got != want[i] {
				t.Fatalf("%s: shard %d inflight = %d, want %d", when, i, got, want[i])
			}
		}
	}

	// Saturate shard 1's queue.
	c.shards[1].inflight.Store(2)
	if _, err := c.LookupBatch(0, probes, out); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if got := c.shards[1].shed.Load(); got != 1 {
		t.Fatalf("shard 1 shed = %d, want 1", got)
	}
	if got := c.Status().ShedBatches; got != 1 {
		t.Fatalf("coordinator sheds = %d, want 1", got)
	}
	// All-or-nothing: shard 0's reservation was rolled back and no
	// lookup was charged anywhere.
	inflight("after a shed", 0, 2, 0)
	check("after a shed")

	// A batch confined to an un-saturated range still serves: shard 1,
	// holding none of its addresses, is not admitted against, and only
	// range 0 is charged.
	if _, err := c.LookupBatch(0, snap.ExactIPs()[:2], out[:2]); err != nil {
		t.Fatalf("shard-0-only batch shed: %v", err)
	}
	charge(snap.ExactIPs()[:2])
	if wantShard != [3]uint64{2, 0, 0} {
		t.Fatalf("the first two exact addresses fall %v into the ranges, want all in range 0", wantShard)
	}
	inflight("after a range-0 batch", 0, 2, 0)
	check("after a range-0 batch")

	// The empty batch touches nothing, so no budget can shed it.
	c.shards[0].inflight.Store(2)
	c.shards[2].inflight.Store(2)
	if _, err := c.LookupBatch(0, nil, nil); err != nil {
		t.Fatalf("empty batch shed: %v", err)
	}
	inflight("after an empty batch", 2, 2, 2)
	check("after an empty batch")

	// Release the queues: full batches serve again, every range charged
	// exactly the addresses that fell in it.
	for _, sh := range c.shards {
		sh.inflight.Store(0)
	}
	if _, err := c.LookupBatch(0, probes, out); err != nil {
		t.Fatalf("post-release batch failed: %v", err)
	}
	charge(probes)
	if wantShard[0] == 0 || wantShard[1] == 0 || wantShard[2] == 0 {
		t.Fatalf("probes fall %v into the ranges, want some in each", wantShard)
	}
	inflight("after a full batch", 0, 0, 0)
	check("after a full batch")
	st := c.Status()
	if st.Batches != 4 || st.ShedBatches != 1 {
		t.Fatalf("batches = %d (%d shed), want 4 (1 shed)", st.Batches, st.ShedBatches)
	}
	// Ranges touched by the three served batches: 1, 0 and 3.
	if want := 4.0 / 3; st.AvgFanout != want {
		t.Fatalf("avg_fanout = %v, want %v", st.AvgFanout, want)
	}
}

// TestClusterHTTP429 drives the shed path through the HTTP layer: a
// saturated shard answers 429 with a JSON error body, and the shed
// shows in /statusz's per-shard section.
func TestClusterHTTP429(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 1, 0)
	c, err := NewCluster(snap, ClusterConfig{Shards: 3, QueueBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c)
	c.shards[0].inflight.Store(1)

	var ips []string
	for _, base := range snap.Prefixes() {
		ips = append(ips, FormatIPv4(base+9))
	}
	body, _ := json.Marshal(map[string]any{"ips": ips})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/batch", bytes.NewReader(body)))
	if w.Code != 429 {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body)
	}
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("429 body is not a JSON error: %q (%v)", w.Body, err)
	}
	if !strings.Contains(resp.Error, "overloaded") {
		t.Fatalf("429 error %q does not mention overload", resp.Error)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || len(st.ShardStats) != 3 {
		t.Fatalf("statusz shards = %d/%d, want 3/3", st.Shards, len(st.ShardStats))
	}
	if st.ShardStats[0].ShedBatches != 1 || st.ShedBatches != 1 {
		t.Fatalf("shed counters not in statusz: %+v", st.ShardStats[0])
	}
	// Single lookups on the saturated shard still serve (shedding is a
	// batch-queue policy, not a read lock).
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/locate?ip="+FormatIPv4(snap.Prefixes()[0]+9), nil))
	if w.Code != 200 {
		t.Fatalf("single lookup during saturation: status %d", w.Code)
	}
}

// TestMidSwapEpochGuard checks the epoch guard across a real Swap
// between disjoint topologies: before it every batch (digest and each
// answer) and every single lookup is the old epoch's, after it the new
// one's — one published pointer, so there is no state in between to
// serve from.
func TestMidSwapEpochGuard(t *testing.T) {
	// Different start, spacing and salt: disjoint topologies and
	// distinct digests, so a blend would be visible.
	snapA := syntheticSnapshot(10<<24, 23, 2, 0)
	snapB := syntheticSnapshot(11<<24, 17, 2, 0.5)
	if snapA.Digest() == snapB.Digest() {
		t.Fatal("test snapshots collide")
	}
	c, err := NewCluster(snapA, ClusterConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	probes := append(probeAddrs(snapA), probeAddrs(snapB)...)
	out := make([]Answer, len(probes))
	servesOnly := func(when string, snap *Snapshot) {
		t.Helper()
		for m := 0; m < 2; m++ {
			digest, err := c.LookupBatch(m, probes, out)
			if err != nil {
				t.Fatal(err)
			}
			if digest != snap.Digest() {
				t.Fatalf("%s: batch digest %s, want %s", when, digest, snap.Digest())
			}
			for i, ip := range probes {
				want := snap.Lookup(m, ip)
				if out[i] != want {
					t.Fatalf("%s: batch[%d] = %+v, want %+v", when, i, out[i], want)
				}
				if got := c.Lookup(m, ip); got != want {
					t.Fatalf("%s: single answer %+v, want %+v", when, got, want)
				}
			}
		}
		// The shard ranges are the same epoch's cuts.
		prefixes := 0
		for _, ss := range c.Status().ShardStats {
			prefixes += ss.Prefixes
		}
		if prefixes != snap.NumPrefixes() {
			t.Fatalf("%s: shard ranges cover %d prefixes, want %d", when, prefixes, snap.NumPrefixes())
		}
	}

	servesOnly("before the swap", snapA)
	old, err := c.Swap(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if old != snapA {
		t.Fatal("Swap did not return the previous snapshot")
	}
	servesOnly("after the swap", snapB)
	if got := c.Status().Snapshot.Swaps; got != 1 {
		t.Fatalf("swaps = %d, want 1", got)
	}
}

// TestClusterStatusShape sanity-checks the per-shard statusz sections
// against the split.
func TestClusterStatusShape(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	c, err := NewCluster(snap, ClusterConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ip := range probeAddrs(snap) {
		c.Lookup(0, ip)
	}
	exact := snap.ExactIPs()
	out := make([]Answer, len(exact))
	if _, err := c.LookupBatch(1, exact, out); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Shards != 4 || st.QueueBudget != DefaultQueueBudget {
		t.Fatalf("bad status header: %+v", st)
	}
	var lookups uint64
	prefixes, ips := 0, 0
	for i, ss := range st.ShardStats {
		lookups += ss.Lookups
		prefixes += ss.Prefixes
		ips += ss.ExactIPs
		if ss.ID != i || ss.Inflight != 0 {
			t.Fatalf("bad shard stat %+v", ss)
		}
	}
	if lookups != st.Lookups || st.Lookups == 0 {
		t.Fatalf("per-shard lookups sum %d != total %d", lookups, st.Lookups)
	}
	if prefixes != snap.NumPrefixes() || ips != snap.NumExactIPs() {
		t.Fatalf("per-shard index sizes %d/%d != snapshot %d/%d",
			prefixes, ips, snap.NumPrefixes(), snap.NumExactIPs())
	}
	if st.Batches != 1 || st.AvgFanout < 1 {
		t.Fatalf("batch counters: %+v", st)
	}
	var attributed uint64
	for _, counts := range st.Methods {
		for _, n := range counts {
			attributed += n
		}
	}
	if attributed != st.Lookups {
		t.Fatalf("method counts sum %d != lookups %d", attributed, st.Lookups)
	}
}

// TestJSONBatchOneViewAcrossSwap races JSON batches on the unsharded
// handler against hot-swaps between two snapshots that disagree on
// every probed answer and on the mapper names. A reply must be wholly
// one epoch's: every answer, every result's mapper and the reply's
// "mapper" from the same snapshot. (The engine this replaced loaded
// the snapshot once per address and named the mapper after serving.)
// Single GETs under a mapper only one epoch knows ride along: the 400
// must list the mappers of the epoch that refused the name, so never
// the name itself. Run under -race in CI.
func TestJSONBatchOneViewAcrossSwap(t *testing.T) {
	snapA := syntheticSnapshot(10<<24, 23, 2, 0)
	snapB := syntheticSnapshot(10<<24, 23, 2, 2.5)
	snapB.mappers = []string{"n0", "n1"}
	snapB.seal(everyGroup(snapB))
	byMapper := map[string]*Snapshot{"m0": snapA, "n0": snapB}

	var (
		addrs []uint32
		ips   []string
	)
	for _, ip := range probeAddrs(snapA) {
		if a, b := snapA.Lookup(0, ip), snapB.Lookup(0, ip); a.Found && b.Found && a.Loc != b.Loc {
			addrs = append(addrs, ip)
			ips = append(ips, FormatIPv4(ip))
		}
	}
	if len(addrs) < 64 {
		t.Fatalf("only %d probes answer differently in the two snapshots", len(addrs))
	}
	body, err := json.Marshal(map[string]any{"ips": ips})
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(snapA)
	h := NewHandler(e)
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for next := snapB; ; {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Swap(next); err != nil {
				t.Error(err)
				return
			}
			if next == snapB {
				next = snapA
			} else {
				next = snapB
			}
		}
	}()

	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for round := 0; round < 300; round++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/batch", bytes.NewReader(body)))
				var resp struct {
					Mapper  string `json:"mapper"`
					Results []struct {
						Mapper string  `json:"mapper"`
						Lat    float64 `json:"lat"`
					} `json:"results"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != 200 {
					t.Errorf("status %d, %v: %s", w.Code, err, w.Body)
					return
				}
				snap := byMapper[resp.Mapper]
				if snap == nil || len(resp.Results) != len(addrs) {
					t.Errorf("reply names mapper %q with %d results", resp.Mapper, len(resp.Results))
					return
				}
				for i, r := range resp.Results {
					if want := snap.Lookup(0, addrs[i]).Loc.Lat; r.Mapper != resp.Mapper || r.Lat != want {
						t.Errorf("reply under %q mixes epochs: result %d is {%q lat %v}, that snapshot says lat %v",
							resp.Mapper, i, r.Mapper, r.Lat, want)
						return
					}
				}

				// n0 is snapB's: snapB answers under it, snapA refuses
				// it and lists its own mappers.
				probe := round % len(addrs)
				w = httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/locate?mapper=n0&ip="+ips[probe], nil))
				var one struct {
					Mapper string  `json:"mapper"`
					Lat    float64 `json:"lat"`
					Error  string  `json:"error"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil {
					t.Errorf("status %d, %v: %s", w.Code, err, w.Body)
					return
				}
				if want := snapB.Lookup(0, addrs[probe]).Loc.Lat; w.Code == 200 && (one.Mapper != "n0" || one.Lat != want) {
					t.Errorf("single reply {%q lat %v}, snapB says lat %v", one.Mapper, one.Lat, want)
					return
				}
				if want := `unknown mapper "n0" (have [m0 m1])`; w.Code != 200 && (w.Code != 400 || one.Error != want) {
					t.Errorf("single refusal %d %q, want 400 %q", w.Code, one.Error, want)
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	swapper.Wait()
}
