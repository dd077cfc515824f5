package geoserve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"geonet/internal/geoserve"
	"geonet/internal/geoserve/snapfile"
)

// TestLookupZeroAlloc pins that the serving hot paths allocate nothing
// per lookup with the full observability layer attached: the
// collector on a live registry and tracing enabled but no trace header
// present (the production steady state). A regression here is exactly
// the kind of slow leak the ladder's engine_lookup_allocs rung exists
// to catch, caught at test time.
func TestLookupZeroAlloc(t *testing.T) {
	p, snap := fixture(t)
	hits := publicIfaceIPs(p)
	if len(hits) == 0 {
		t.Fatal("fixture has no public interface addresses")
	}

	mappers := snap.Mappers()

	e := geoserve.NewEngine(snap)
	// A handler puts the engine's collector on a live registry, same as
	// production serving.
	geoserve.NewHandler(e)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		a := e.Lookup(i&1, hits[i%len(hits)])
		if a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Engine.Lookup: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		idx, ok := snap.MapperIndex(mappers[i&1])
		if a := e.Lookup(idx, hits[i%len(hits)]); !ok || a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Engine.Lookup by name: %v allocs/op, want 0", n)
	}

	c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	geoserve.NewHandler(c)
	i = 0
	if n := testing.AllocsPerRun(1000, func() {
		a := c.Lookup(i&1, hits[i%len(hits)])
		if a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Cluster.Lookup: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		idx, ok := snap.MapperIndex(mappers[i&1])
		if a := c.Lookup(idx, hits[i%len(hits)]); !ok || a.IP == 0 {
			t.Fatal("bad answer")
		}
		i++
	}); n != 0 {
		t.Errorf("Cluster.Lookup by name: %v allocs/op, want 0", n)
	}

	// The pools above are interface addresses, all exact hits; the
	// other ways through the directory must stay as clean, unsharded
	// and sharded.
	for _, path := range lookupPaths(t, snap) {
		for name, c := range map[string]*geoserve.Cluster{"Engine": e, "Cluster": c} {
			if n := testing.AllocsPerRun(1000, func() {
				if a := c.Lookup(i&1, path.ip); a.Exact != path.exact {
					t.Fatal("bad answer")
				}
				i++
			}); n != 0 {
				t.Errorf("%s.Lookup, %s: %v allocs/op, want 0", name, path.name, n)
			}
			if n := testing.AllocsPerRun(1000, func() {
				idx, ok := snap.MapperIndex(mappers[i&1])
				if a := c.Lookup(idx, path.ip); !ok || a.Exact != path.exact {
					t.Fatal("bad answer")
				}
				i++
			}); n != 0 {
				t.Errorf("%s.Lookup by name, %s: %v allocs/op, want 0", name, path.name, n)
			}
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestLookupBatchZeroAllocs pins that a batch is served by the
// goroutine that brought it, at every shard count: LookupBatch
// allocates nothing — so it starts no goroutine and takes no scratch
// buffer, however many shard ranges the batch touches — and a
// /v1/locate/bin request costs the same allocations at 1, 2 and 8
// shards, for a MaxBatch batch spread over every range and for a batch
// of one address.
func TestLookupBatchZeroAllocs(t *testing.T) {
	_, snap := fixture(t)
	prefixes := snap.Prefixes()
	full := make([]uint32, geoserve.MaxBatch)
	for j := range full {
		full[j] = prefixes[j*len(prefixes)/len(full)] + 9
	}
	out := make([]geoserve.Answer, len(full))

	for _, batch := range [][]uint32{full, full[:1]} {
		handlerAllocs := map[int]float64{}
		for _, shards := range []int{1, 2, 8} {
			c, err := geoserve.NewCluster(snap, geoserve.ClusterConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			h := geoserve.NewHandler(c)
			if n := testing.AllocsPerRun(100, func() {
				if _, err := c.LookupBatch(0, batch, out); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("LookupBatch of %d at %d shards: %v allocs/op, want 0", len(batch), shards, n)
			}
			// The full batch really was spread over every range.
			if st := c.Status(); len(batch) == len(full) && st.AvgFanout != float64(shards) {
				t.Fatalf("%d shards: full batches touched %v ranges on average", shards, st.AvgFanout)
			}

			body := bytes.NewReader(geoserve.AppendWireBatchRequest(nil, 0, batch))
			handlerAllocs[shards] = testing.AllocsPerRun(100, func() {
				body.Seek(0, io.SeekStart)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin", body))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d", w.Code)
				}
			})
		}
		if a := handlerAllocs; (a[2] != a[1] || a[8] != a[1]) && !raceEnabled {
			t.Errorf("/v1/locate/bin batch of %d: %v allocs/op by shard count, want the same at each", len(batch), a)
		}
	}
}

// TestFirstWireBatchBuildsNothing pins that a snapshot holds one copy
// of its answers and the wire path serves from it: on a snapshot
// nothing has served from yet — freshly compiled, and freshly decoded
// from a snapfile — the first /v1/locate/bin batch allocates nothing
// that grows with the row count, and for every mapper and row the 32
// record bytes in the response are the bytes its group's page stores.
func TestFirstWireBatchBuildsNothing(t *testing.T) {
	p, _ := fixture(t)
	compiled, err := p.Serve()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapfile.Encode(compiled, 1)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := snapfile.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*geoserve.Snapshot{"compiled": compiled, "decoded": decoded} {
		ips := snap.ExactIPs()
		rows := snap.NumPrefixes() + len(ips)
		h := geoserve.NewHandler(geoserve.NewEngine(snap))

		// A second full copy of the answers is rows × RecordSize per
		// mapper; a 64-address batch needs a few KB of buffers.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := postWire(t, h, 0, ips[:64])
		runtime.ReadMemStats(&after)
		if w.Code != 200 {
			t.Fatalf("%s: first batch answered %d", name, w.Code)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(rows*geoserve.RecordSize/8); grew > limit {
			t.Errorf("%s: first wire batch allocated %d bytes, want under %d (%d rows)", name, grew, limit, rows)
		}

		// One address per row: for each /24 its highest address that has
		// no exact row of its own (a /24 of 256 interfaces would fail the
		// comparison below; the fixture has none), and each exact address,
		// beside the record its group's page stores for it.
		type stored struct {
			g   geoserve.Group
			row int
		}
		addrs, addrRow := make([]uint32, 0, rows), make([]stored, 0, rows)
		isExact := func(ip uint32) bool {
			_, ok := slices.BinarySearch(ips, ip)
			return ok
		}
		for _, g := range snap.Groups() {
			for i, base := range g.Prefixes {
				ip := base + 255
				for ip > base && isExact(ip) {
					ip--
				}
				addrs, addrRow = append(addrs, ip), append(addrRow, stored{g, i})
			}
			for i, ip := range g.IPs {
				addrs, addrRow = append(addrs, ip), append(addrRow, stored{g, len(g.Prefixes) + i})
			}
		}
		for m := range snap.Mappers() {
			for lo := 0; lo < len(addrs); lo += geoserve.MaxBatch {
				hi := min(lo+geoserve.MaxBatch, len(addrs))
				body := postWire(t, h, uint16(m), addrs[lo:hi]).Body.Bytes()
				const frame = 8 + 12 // message header, then count and epoch tag
				if len(body) != frame+(hi-lo)*geoserve.WireAnswerSize {
					t.Fatalf("%s mapper %d: %d-byte reply to %d addresses", name, m, len(body), hi-lo)
				}
				for j, at := range addrRow[lo:hi] {
					served := body[frame+j*geoserve.WireAnswerSize+4:][:geoserve.RecordSize]
					if rec := at.g.Pages[m][at.row*geoserve.RecordSize:][:geoserve.RecordSize]; !bytes.Equal(served, rec) {
						t.Fatalf("%s mapper %d group %s row %d: served record %x, stored %x",
							name, m, geoserve.FormatIPv4(at.g.Base), at.row, served, rec)
					}
				}
			}
		}
	}
}
