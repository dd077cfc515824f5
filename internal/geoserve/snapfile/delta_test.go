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
	h := geoserve.Header{
		Build:   geoserve.BuildInfo{Seed: seed, Scale: 0.5, Label: "delta-world"},
		Mappers: []string{"alpha", "beta"},
	}
	const nASNs = 8
	for i := 0; i < nASNs; i++ {
		h.ASNs = append(h.ASNs, int32(100+i))
	}
	var gs []geoserve.Group // the /20 leaf groups of sorted, ascending
	for _, key := range sorted {
		if base := key &^ (1<<12 - 1); len(gs) == 0 || gs[len(gs)-1].Base != base {
			gs = append(gs, geoserve.Group{Base: base})
		}
		g := &gs[len(gs)-1]
		g.Prefixes, g.IPs = append(g.Prefixes, key), append(g.IPs, key+1, key+2)
	}
	methods := []string{"feed", "hostname", "loc", "whois"}
	for m := 0; m < len(h.Mappers); m++ {
		for gi := range gs {
			g := &gs[gi]
			np := len(g.Prefixes)
			page := make([]byte, 3*np*geoserve.RecordSize)
			fill := func(row int, r *rng.Stream) {
				a := geoserve.Answer{Exact: row >= np}
				asn := int(h.ASNs[r.Intn(nASNs)])
				if r.Bool(0.8) {
					a.ASN = asn
					a.Found = true
					a.Method = methods[r.Intn(4)]
					a.Loc.Lat = r.Float64()*180 - 90
					a.Loc.Lon = r.Float64()*360 - 180
					a.RadiusMi = r.Float64() * 500
				}
				if err := geoserve.PutRecord(page[row*geoserve.RecordSize:], a); err != nil {
					tb.Fatal(err)
				}
			}
			for i, key := range g.Prefixes {
				r := rng.New(seed + int64(m)*7919 + int64(key)*31 + salts[key])
				fill(i, r)
				fill(np+2*i, r)
				fill(np+2*i+1, r)
			}
			g.Pages = append(g.Pages, page)
		}
		fps := make([]analysis.ASFootprint, nASNs)
		fr := rng.New(seed + int64(m))
		for i := range fps {
			if fr.Bool(0.7) {
				fps[i] = analysis.ASFootprint{
					ASN:        int(h.ASNs[i]),
					Interfaces: 1 + fr.Intn(50),
					Locations:  1 + fr.Intn(10),
					Degree:     fr.Intn(20),
					Centroid:   geo.Pt(fr.Float64()*180-90, fr.Float64()*360-180),
					AreaSqMi:   fr.Float64() * 1e6,
					RadiusMi:   fr.Float64() * 500,
				}
			}
		}
		h.Footprints = append(h.Footprints, fps)
	}
	snap, err := geoserve.Derive(nil, h, gs)
	if err != nil {
		tb.Fatalf("Derive: %v", err)
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
	for _, tc := range []struct {
		name string
		calm []uint32 // the /24s of a group the churn leaves alone
	}{
		// The churn touches every leaf group of keys, so the delta puts
		// every group: it is the file plus the 40 bytes by which a
		// delta's header (two epochs and the base digest) outgrows a
		// file's (one epoch).
		{"every group churns", nil},
		// A calm group is one the delta skips and the file carries.
		{"one group calm", []uint32{12 << 24, 12<<24 | 1<<8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := buildWorld(t, 1, append(slices.Clone(keys), tc.calm...), nil)
			newKeys, salts := churnedKeys(keys, 1)
			new := buildWorld(t, 1, append(newKeys, tc.calm...), salts)
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
			if tc.calm == nil && len(delta) != len(full)+40 {
				t.Fatalf("delta of every group is %d bytes, want the full snapshot's %d + 40", len(delta), len(full))
			}
			if tc.calm != nil && len(delta) >= len(full) {
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
			// interchangeable at the file level, not just digest-equal —
			// and owns its memory: the delta's bytes, overwritten once
			// Apply returns, change none of it.
			for i := range delta {
				delta[i] = 0xFF
			}
			reenc, err := Encode(applied, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reenc, full) {
				t.Fatal("applied snapshot re-encodes differently from the full target file")
			}
		})
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
	h := other.Header()
	h.Mappers = []string{"alpha", "gamma"}
	renamed, err := geoserve.Derive(nil, h, other.Groups())
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
	}
	// The ops are the churned group 10.0.0.0/20 and the new group
	// 11.0.0.0/20, which the base lacks, so its delete is refused.
	for _, oc := range opDamage {
		damage = append(damage, damageCase{oc.name, ops(oc.edit), ErrFormat, oc.msg})
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
			// A failed Apply leaves its base as it was: base's groups,
			// derived again from nothing, still seal to its digest.
			resealed, err := geoserve.Derive(nil, old.Header(), old.Groups())
			if err != nil {
				t.Fatalf("base after a failed apply: %v", err)
			}
			if resealed.Digest() != old.Digest() {
				t.Fatalf("base after a failed apply seals to %.16s, want %.16s", resealed.Digest(), old.Digest())
			}
		})
	}
}

// opDamage lists, for a file's ops and a delta's alike, one edit per
// rule Derive holds a group op to, and the words its error names. Each
// edits ops of at least two groups, the first holding two exact
// addresses, where the base holds no group at the second op's base.
var opDamage = []struct {
	name string
	edit func([]geoserve.Group)
	msg  string
}{
	{"group base not /20-aligned", func(g []geoserve.Group) { g[0].Base += 1 << 8 }, "not a /20 base"},
	{"group bases out of order", func(g []geoserve.Group) { g[0], g[1] = g[1], g[0] }, "not a /20 base"},
	{"prefix outside its group", func(g []geoserve.Group) { g[0].Prefixes[len(g[0].Prefixes)-1] = g[0].Base + 1<<12 }, "not a /24 base inside it"},
	{"exact address outside its group", func(g []geoserve.Group) { g[0].IPs[len(g[0].IPs)-1] = g[0].Base + 1<<12 + 1 }, "not inside it above its predecessor"},
	{"keys out of order", func(g []geoserve.Group) { g[0].IPs[0], g[0].IPs[1] = g[0].IPs[1], g[0].IPs[0] }, "not inside it above its predecessor"},
	{"record bytes not mappers × rows", func(g []geoserve.Group) { g[0].Pages[1] = g[0].Pages[1][:len(g[0].Pages[1])-geoserve.RecordSize] }, "per mapper"},
	{"delete of a group base lacks", func(g []geoserve.Group) { g[1] = geoserve.Group{Base: g[1].Base} }, "does not hold"},
}

// rewriteOps returns a file or delta with its ops decoded, edited in
// place and encoded again, and the whole-file hash resealed; the
// content digest stays.
func rewriteOps(tb testing.TB, data []byte, nMappers int, edit func([]geoserve.Group)) []byte {
	tb.Helper()
	at := sectionPayload(data, 3+nMappers) - 8 // header, mappers, asns, footprints, then ops
	ops, err := decodeOps(&decoder{data: data[at : len(data)-trailerBytes]}, nMappers)
	if err != nil {
		tb.Fatal(err)
	}
	edit(ops)
	out := appendSection(bytes.Clone(data[:at]), func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
		for _, op := range ops {
			b = appendOp(b, op)
		}
		return b
	})
	out = append(out, data[len(data)-trailerBytes:]...)
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
	gs := new.Groups()
	gs[3].Pages = slices.Clone(gs[3].Pages)
	gs[3].Pages[1] = bytes.Clone(gs[3].Pages[1])
	gs[3].Pages[1][2*geoserve.RecordSize] ^= 1 // keys[50]'s prefix row, in the last group
	flipped, err := geoserve.Derive(nil, new.Header(), gs)
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
