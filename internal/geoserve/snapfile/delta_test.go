package snapfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/geo"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// buildWorld assembles a snapshot whose per-/24 content is a pure
// function of (seed, key, salts[key]): two epochs built with mostly
// the same salts share most intervals byte-for-byte, which is exactly
// the shape delta epochs exploit. Each /24 carries a prefix row and
// two exact addresses.
func buildWorld(tb testing.TB, seed int64, keys []uint32, salts map[uint32]int64) *geoserve.Snapshot {
	tb.Helper()
	sorted := append([]uint32(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c := geoserve.Tables{
		Build:   geoserve.BuildInfo{Seed: seed, Scale: 0.5, Label: "delta-world"},
		Mappers: []string{"alpha", "beta"},
	}
	const nASNs = 8
	for i := 0; i < nASNs; i++ {
		c.ASNs = append(c.ASNs, int32(100+i))
	}
	for _, key := range sorted {
		c.Prefixes = append(c.Prefixes, key)
		c.IPs = append(c.IPs, key+1, key+2)
	}
	methods := []string{"feed", "hostname", "loc", "whois"}
	rows := len(c.Prefixes) + len(c.IPs)
	for m := 0; m < len(c.Mappers); m++ {
		slab := make([]byte, rows*geoserve.RecordSize)
		fill := func(row int, r *rng.Stream) {
			a := geoserve.Answer{Exact: row >= len(sorted)}
			asn := int(c.ASNs[r.Intn(nASNs)])
			if r.Bool(0.8) {
				a.ASN = asn
				a.Found = true
				a.Method = methods[r.Intn(4)]
				a.Loc.Lat = r.Float64()*180 - 90
				a.Loc.Lon = r.Float64()*360 - 180
				a.RadiusMi = r.Float64() * 500
			}
			if err := geoserve.PutRecord(slab[row*geoserve.RecordSize:], a); err != nil {
				tb.Fatal(err)
			}
		}
		for i, key := range sorted {
			r := rng.New(seed + int64(m)*7919 + int64(key)*31 + salts[key])
			fill(i, r)
			fill(len(sorted)+2*i, r)
			fill(len(sorted)+2*i+1, r)
		}
		c.Records = append(c.Records, slab)
		fps := make([]analysis.ASFootprint, nASNs)
		fr := rng.New(seed + int64(m))
		for i := range fps {
			if fr.Bool(0.7) {
				fps[i] = analysis.ASFootprint{
					ASN:        int(c.ASNs[i]),
					Interfaces: 1 + fr.Intn(50),
					Locations:  1 + fr.Intn(10),
					Degree:     fr.Intn(20),
					Centroid:   geo.Pt(fr.Float64()*180-90, fr.Float64()*360-180),
					AreaSqMi:   fr.Float64() * 1e6,
					RadiusMi:   fr.Float64() * 500,
				}
			}
		}
		c.Footprints = append(c.Footprints, fps)
	}
	snap, err := geoserve.FromTables(c)
	if err != nil {
		tb.Fatalf("FromTables: %v", err)
	}
	return snap
}

// worldKeys returns n /24 base addresses under 10.0.0.0/8.
func worldKeys(n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(10<<24) + uint32(i)<<8
	}
	return keys
}

// churnedKeys mutates the key set and salts the way a rebuild does:
// a few intervals change content, one /24 disappears, one appears.
func churnedKeys(keys []uint32, step int64) ([]uint32, map[uint32]int64) {
	out := make([]uint32, 0, len(keys))
	for i, k := range keys {
		if int64(i)%17 == step%17 {
			continue // this /24 got deallocated this epoch
		}
		out = append(out, k)
	}
	fresh := uint32(11<<24) + uint32(step)<<8
	out = append(out, fresh)
	salts := map[uint32]int64{fresh: 0}
	for i, k := range keys {
		if int64(i)%5 == step%5 {
			salts[k] = 1000 + step // answers moved at prefix granularity
		}
	}
	return out, salts
}

func TestDiffApplyRoundTrip(t *testing.T) {
	keys := worldKeys(40)
	old := buildWorld(t, 1, keys, nil)
	newKeys, salts := churnedKeys(keys, 1)
	new := buildWorld(t, 1, newKeys, salts)
	if old.Digest() == new.Digest() {
		t.Fatal("test is vacuous: churn produced identical snapshots")
	}

	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Encode(new, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(full) {
		t.Fatalf("delta (%d bytes) not smaller than the full snapshot (%d bytes)", len(delta), len(full))
	}

	applied, info, err := Apply(old, delta)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Digest() != new.Digest() {
		t.Fatalf("applied digest %s != target %s", applied.Digest(), new.Digest())
	}
	if info.FromEpoch != 1 || info.ToEpoch != 2 ||
		info.FromDigest != old.Digest() || info.ToDigest != new.Digest() {
		t.Fatalf("delta info %+v", info)
	}
	if info.Build != new.Build() {
		t.Fatalf("delta build info %+v != %+v", info.Build, new.Build())
	}
	if info.Ops == 0 || info.Ops >= len(keys) {
		t.Fatalf("delta carries %d ops for a partial churn over %d intervals", info.Ops, len(keys))
	}
	// The applied snapshot re-encodes byte-identically to a full
	// download of the target epoch — delta sync and full sync are
	// interchangeable at the file level, not just digest-equal.
	reenc, err := Encode(applied, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, full) {
		t.Fatal("applied snapshot re-encodes differently from the full target file")
	}
}

func TestDiffIdenticalSnapshotsIsEmpty(t *testing.T) {
	snap := buildWorld(t, 2, worldKeys(12), nil)
	delta, err := Diff(snap, snap, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	applied, info, err := Apply(snap, delta)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ops != 0 {
		t.Fatalf("identical snapshots produced %d ops", info.Ops)
	}
	if applied.Digest() != snap.Digest() {
		t.Fatal("identity delta changed the digest")
	}
}

func TestDiffDeterministic(t *testing.T) {
	keys := worldKeys(20)
	old := buildWorld(t, 3, keys, nil)
	newKeys, salts := churnedKeys(keys, 2)
	new := buildWorld(t, 3, newKeys, salts)
	a, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two diffs of the same snapshots differ")
	}
}

func TestDiffRejectsMapperMismatch(t *testing.T) {
	snap := buildWorld(t, 4, worldKeys(8), nil)
	other := makeSnapshot(t, 4, 8, 4)
	c := other.Tables()
	c.Mappers = []string{"alpha", "gamma"}
	renamed, err := geoserve.FromTables(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Diff(snap, renamed, 1, 2); err == nil {
		t.Fatal("diff across mapper sets succeeded")
	}
}

func TestApplyRejectsDamage(t *testing.T) {
	keys := worldKeys(16)
	old := buildWorld(t, 5, keys, nil)
	newKeys, salts := churnedKeys(keys, 3)
	new := buildWorld(t, 5, newKeys, salts)
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	type damageCase struct {
		name string
		mut  func([]byte) []byte
		want error
		msg  string // in the error, when set
	}
	nm := len(new.Mappers())
	ops := func(edit func([]geoserve.Group)) func([]byte) []byte {
		return func(b []byte) []byte { return rewriteOps(t, b, nm, edit) }
	}
	if _, _, err := Apply(old, rewriteOps(t, bytes.Clone(delta), nm, func([]geoserve.Group) {})); err != nil {
		t.Fatalf("ops rewritten unchanged: %v", err)
	}
	damage := []damageCase{
		{"empty", func(b []byte) []byte { return nil }, ErrMagic, ""},
		{"full-snapshot magic", func(b []byte) []byte { copy(b, magic); return b }, ErrMagic, ""},
		{"version skew", func(b []byte) []byte { b[8] = 99; return b }, ErrVersion, ""},
		{"version 3", func(b []byte) []byte { b[8] = 3; return b }, ErrVersion, ""},
		{"cut mid-section", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated, ""},
		{"cut trailer", func(b []byte) []byte { return b[:len(b)-70] }, ErrTruncated, ""},
		{"bit flip in body", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }, ErrCorrupt, ""},
		{"bit flip in to-digest", func(b []byte) []byte { b[len(b)-40] ^= 0x01; return b }, ErrCorrupt, ""},
		{"bit flip in file hash", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrCorrupt, ""},
		// The ops are the churned group 10.0.0.0/20 and the new group
		// 11.0.0.0/20. Each case breaks one rule Derive holds a group
		// op to and is resealed, its to-digest left alone.
		{"group base not /20-aligned", ops(func(g []geoserve.Group) { g[0].Base += 1 << 8 }), ErrFormat, "not a /20 base"},
		{"group bases out of order", ops(func(g []geoserve.Group) { g[0], g[1] = g[1], g[0] }), ErrFormat, "not a /20 base"},
		{"prefix outside its group", ops(func(g []geoserve.Group) { g[0].Prefixes[len(g[0].Prefixes)-1] = g[0].Base + 1<<12 }), ErrFormat, "not a /24 base inside it"},
		{"exact address outside its group", ops(func(g []geoserve.Group) { g[0].IPs[len(g[0].IPs)-1] = g[0].Base + 1<<12 + 1 }), ErrFormat, "not inside it above its predecessor"},
		{"keys out of order", ops(func(g []geoserve.Group) { g[0].IPs[0], g[0].IPs[1] = g[0].IPs[1], g[0].IPs[0] }), ErrFormat, "not inside it above its predecessor"},
		{"record bytes not mappers × rows", ops(func(g []geoserve.Group) { g[0].Pages[1] = g[0].Pages[1][:len(g[0].Pages[1])-geoserve.RecordSize] }), ErrFormat, "per mapper"},
		{"delete of a group base lacks", ops(func(g []geoserve.Group) { g[1] = geoserve.Group{Base: g[1].Base} }), ErrFormat, "does not hold"},
	}
	// A put op's records get the same canonical-record checks a full
	// file's do: each case is resealed, and its to-digest left alone.
	for _, nc := range noncanonical {
		damage = append(damage, damageCase{"put op: " + nc.name, func(b []byte) []byte {
			at := findRecord(t, b, new, nc.exactRow)
			nc.mut(b[at : at+geoserve.RecordSize])
			reseal(b)
			return b
		}, ErrFormat, ""})
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mut(append([]byte(nil), delta...))
			s, _, err := Apply(old, mutated)
			if err == nil {
				t.Fatal("damaged delta applied cleanly")
			}
			if s != nil {
				t.Fatal("damaged apply returned a snapshot alongside its error")
			}
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %v, want %v naming %q", err, tc.want, tc.msg)
			}
			// A failed Apply leaves its base as it was: base's tables,
			// gathered from its pages, still seal to its digest.
			resealed, err := geoserve.FromTables(old.Tables())
			if err != nil {
				t.Fatalf("base after a failed apply: %v", err)
			}
			if resealed.Digest() != old.Digest() {
				t.Fatalf("base after a failed apply seals to %.16s, want %.16s", resealed.Digest(), old.Digest())
			}
		})
	}
}

// rewriteOps returns delta with its ops decoded, edited in place and
// encoded again, and the whole-file hash resealed; the to-digest stays.
func rewriteOps(tb testing.TB, delta []byte, nMappers int, edit func([]geoserve.Group)) []byte {
	tb.Helper()
	at := sectionPayload(delta, 3+nMappers) - 8 // header, mappers, asns, footprints, then ops
	ops, err := decodeOps(&decoder{data: delta[at : len(delta)-trailerBytes]}, nMappers)
	if err != nil {
		tb.Fatal(err)
	}
	edit(ops)
	out := appendSection(bytes.Clone(delta[:at]), func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
		for _, op := range ops {
			b = appendOp(b, op)
		}
		return b
	})
	out = append(out, delta[len(delta)-trailerBytes:]...)
	reseal(out)
	return out
}

// TestApplyRejectsBadFootprintOrScale runs badContent through Apply: a
// delta carries the target's footprints whole and its build in the
// header, and Apply takes both from it. Each damaged delta is resealed
// and must fail as malformed.
func TestApplyRejectsBadFootprintOrScale(t *testing.T) {
	keys := worldKeys(16)
	old := buildWorld(t, 5, keys, nil)
	newKeys, salts := churnedKeys(keys, 3)
	new := buildWorld(t, 5, newKeys, salts)
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range badContent {
		t.Run(tc.name, func(t *testing.T) {
			forged := bytes.Clone(delta)
			tc.mut(footprintRow(t, forged, new, 3, tc.present), forged[sectionPayload(forged, 0)+56:])
			reseal(forged)
			if s, _, err := Apply(old, forged); !errors.Is(err, ErrFormat) || s != nil {
				t.Fatalf("snapshot %v, err %v; want no snapshot and ErrFormat", s != nil, err)
			}
		})
	}
}

func TestApplyRejectsWrongBase(t *testing.T) {
	keys := worldKeys(16)
	old := buildWorld(t, 6, keys, nil)
	newKeys, salts := churnedKeys(keys, 4)
	new := buildWorld(t, 6, newKeys, salts)
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	stranger := buildWorld(t, 7, keys, nil)
	if _, _, err := Apply(stranger, delta); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("wrong-base apply: err %v, want ErrDeltaBase", err)
	}
	if _, _, err := Apply(nil, delta); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("nil-base apply: err %v, want ErrDeltaBase", err)
	}
	// Applying the delta to its own output must also fail the base
	// check (from-digest names old, not new).
	if _, _, err := Apply(new, delta); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("re-apply: err %v, want ErrDeltaBase", err)
	}
}

// TestApplyRejectsForgedToDigest rewrites the to-digest and re-seals
// the file hash: the recomputed content digest of the applied result
// must still catch the forgery.
func TestApplyRejectsForgedToDigest(t *testing.T) {
	keys := worldKeys(16)
	old := buildWorld(t, 8, keys, nil)
	newKeys, salts := churnedKeys(keys, 5)
	new := buildWorld(t, 8, newKeys, salts)
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), delta...)
	forged[len(forged)-40] ^= 0x01
	reseal(forged)
	if _, _, err := Apply(old, forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged to-digest applied with err %v, want ErrCorrupt", err)
	}
}

// TestIncrementalDigestRehashesTouched pins that Apply's touched set is
// its own ops' groups, each rehashed: a delta that smuggles a flipped
// byte in under the honest target's digest fails ErrCorrupt. What a
// digest computed against a predecessor trusts and checks is geoserve's
// TestSealRehashesTouched.
func TestIncrementalDigestRehashesTouched(t *testing.T) {
	keys := worldKeys(64) // four leaf groups of 16 /24s
	old := buildWorld(t, 1, keys, nil)
	new := buildWorld(t, 1, keys, map[uint32]int64{keys[3]: 9}) // only the first group changes
	tabs := new.Tables()
	tabs.Records[1][50*geoserve.RecordSize] ^= 1 // keys[50]'s prefix row, in the last group
	flipped, err := geoserve.FromTables(tabs)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Diff(old, flipped, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := rawDigest(new.Digest())
	if err != nil {
		t.Fatal(err)
	}
	copy(delta[len(delta)-64:], honest)
	reseal(delta)
	if s, _, err := Apply(old, delta); !errors.Is(err, ErrCorrupt) || s != nil {
		t.Fatalf("delta carrying a flipped row under the honest digest: snapshot %v, err %v; want ErrCorrupt", s != nil, err)
	}
}

// TestLeavesNeverTravel pins that a snapshot's leaf hashes appear in
// neither its file nor a delta to it, and that the reader's own leaves
// equal the writer's: a loaded or applied snapshot computed its leaves
// itself, so a reused leaf is always one the reader hashed.
func TestLeavesNeverTravel(t *testing.T) {
	keys := worldKeys(40)
	old := buildWorld(t, 1, keys, nil)
	newKeys, salts := churnedKeys(keys, 1)
	new := buildWorld(t, 1, newKeys, salts)
	file, err := Encode(new, 2)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*geoserve.Snapshot{old, new} {
		for _, leaf := range snap.Leaves() {
			if bytes.Contains(file, leaf.Sum[:]) || bytes.Contains(delta, leaf.Sum[:]) {
				t.Fatalf("leaf %s/20 travels in the encoded bytes", geoserve.FormatIPv4(leaf.Base))
			}
		}
	}
	decoded, _, err := Decode(file)
	if err != nil {
		t.Fatal(err)
	}
	applied, _, err := Apply(old, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decoded.Leaves(), new.Leaves()) || !slices.Equal(applied.Leaves(), new.Leaves()) {
		t.Fatal("a reader's leaves differ from the writer's")
	}
}

// TestLoadMmapMatchesHeap pins that the (linux) mmap-backed Load and a
// plain heap decode of the same file yield snapshots with identical
// content digests. On other platforms Load is the heap path and the
// comparison is trivially exact.
func TestLoadMmapMatchesHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "world.snap")
	snap := makeSnapshot(t, 9, 30, 8)
	if err := WriteFile(path, snap, 2); err != nil {
		t.Fatal(err)
	}
	mapped, mInfo, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, hInfo, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Digest() != heap.Digest() || mapped.Digest() != snap.Digest() {
		t.Fatalf("mmap digest %s, heap digest %s, source %s", mapped.Digest(), heap.Digest(), snap.Digest())
	}
	if mInfo != hInfo {
		t.Fatalf("file info diverges: mmap %+v heap %+v", mInfo, hInfo)
	}
	// The mapping is released after Decode; the snapshot must own all
	// its memory. Exercise lookups after the load to catch a retained
	// reference into an unmapped region.
	for _, ip := range []uint32{snap.ExactIPs()[0], snap.Prefixes()[3] + 77, 0xF0000001} {
		if got, want := mapped.Lookup(0, ip), snap.Lookup(0, ip); got != want {
			t.Fatalf("ip %d: mmap-loaded answer %+v != %+v", ip, got, want)
		}
	}
}

func BenchmarkSnapfileDiffApply(b *testing.B) {
	keys := worldKeys(2000)
	old := buildWorld(b, 1, keys, nil)
	newKeys, salts := churnedKeys(keys, 1)
	new := buildWorld(b, 1, newKeys, salts)
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("delta %d bytes vs full %d", len(delta), mustLen(b, new))
	b.SetBytes(int64(len(delta)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := Diff(old, new, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Apply(old, fresh); err != nil {
			b.Fatal(err)
		}
	}
}

func mustLen(b *testing.B, snap *geoserve.Snapshot) int {
	blob, err := Encode(snap, 2)
	if err != nil {
		b.Fatal(err)
	}
	return len(blob)
}
