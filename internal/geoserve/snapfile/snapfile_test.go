package snapfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/geo"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// makeSnapshot assembles a small synthetic snapshot through the same
// geoserve.Derive path Decode uses, so tests need no pipeline run.
// Content is deterministic in (seed, nPrefixes, nASNs).
func makeSnapshot(tb testing.TB, seed int64, nPrefixes, nASNs int) *geoserve.Snapshot {
	tb.Helper()
	r := rng.New(seed)
	h := geoserve.Header{
		Build:   geoserve.BuildInfo{Seed: seed, Scale: 0.5, Label: "synthetic"},
		Mappers: []string{"alpha", "beta"},
	}
	// The /24s run up from 10.0.0.0, sixteen to a /20 leaf group, each
	// with two exact addresses.
	var gs []geoserve.Group
	for i := 0; i < nPrefixes; i++ {
		p := uint32(10<<24) + uint32(i)<<8
		if i%16 == 0 {
			gs = append(gs, geoserve.Group{Base: p})
		}
		g := &gs[i/16]
		g.Prefixes, g.IPs = append(g.Prefixes, p), append(g.IPs, p+1, p+2)
	}
	for i := 0; i < nASNs; i++ {
		h.ASNs = append(h.ASNs, int32(100+i))
	}
	methods := []string{"feed", "hostname", "loc", "whois"}
	for m := 0; m < len(h.Mappers); m++ {
		for i := range gs {
			gs[i].Pages = append(gs[i].Pages, make([]byte, 3*len(gs[i].Prefixes)*geoserve.RecordSize))
		}
		// A mapper draws every prefix row, then every exact row.
		for row := 0; row < 3*nPrefixes; row++ {
			a := geoserve.Answer{Exact: row >= nPrefixes}
			gi, at := row/16, row%16
			if j := row - nPrefixes; a.Exact {
				gi, at = j/32, len(gs[j/32].Prefixes)+j%32
			}
			if nASNs > 0 {
				a.ASN = int(h.ASNs[r.Intn(nASNs)])
			}
			if r.Bool(0.8) {
				a.Found = true
				a.Method = methods[r.Intn(4)]
				a.Loc.Lat = r.Float64()*180 - 90
				a.Loc.Lon = r.Float64()*360 - 180
				a.RadiusMi = r.Float64() * 500
			}
			if err := geoserve.PutRecord(gs[gi].Pages[m][at*geoserve.RecordSize:], a); err != nil {
				tb.Fatal(err)
			}
		}
		fps := make([]analysis.ASFootprint, nASNs)
		for i := range fps {
			if r.Bool(0.7) {
				fps[i] = analysis.ASFootprint{
					ASN:        int(h.ASNs[i]),
					Interfaces: 1 + r.Intn(50),
					Locations:  1 + r.Intn(10),
					Degree:     r.Intn(20),
					Centroid:   geo.Pt(r.Float64()*180-90, r.Float64()*360-180),
					AreaSqMi:   r.Float64() * 1e6,
					RadiusMi:   r.Float64() * 500,
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

func TestRoundTrip(t *testing.T) {
	snap := makeSnapshot(t, 7, 40, 12)
	blob, err := Encode(snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	loaded, info, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded snapshot owns its memory: the file's bytes, overwritten
	// once Decode returns, change none of it.
	orig := bytes.Clone(blob)
	for i := range blob {
		blob[i] = 0xFF
	}
	if reenc, err := Encode(loaded, 3); err != nil || !bytes.Equal(reenc, orig) {
		t.Fatalf("decoded snapshot re-encodes differently once its file's bytes are overwritten (%v)", err)
	}
	if loaded.Digest() != snap.Digest() {
		t.Fatalf("digest drifted across encode/decode: %s != %s", loaded.Digest(), snap.Digest())
	}
	if info.Epoch != 3 || info.FormatVersion != FormatVersion || info.Digest != snap.Digest() {
		t.Fatalf("bad FileInfo %+v", info)
	}
	if info.Build != snap.Build() {
		t.Fatalf("build info drifted: %+v != %+v", info.Build, snap.Build())
	}
	if info.SizeBytes != int64(len(blob)) {
		t.Fatalf("SizeBytes %d != %d", info.SizeBytes, len(blob))
	}
	// Every class of lookup must answer identically: exact hit, prefix
	// hit, and a miss outside allocated space, under both mappers.
	probes := []uint32{
		snap.ExactIPs()[0], snap.ExactIPs()[5],
		snap.Prefixes()[3] + 200, // generic host
		0xF0000001,               // class E miss
	}
	for m := 0; m < 2; m++ {
		for _, ip := range probes {
			if got, want := loaded.Lookup(m, ip), snap.Lookup(m, ip); got != want {
				t.Fatalf("mapper %d ip %d: loaded answer %+v != %+v", m, ip, got, want)
			}
		}
		for _, asn := range []int{100, 105, 999} {
			gf, gok := loaded.Footprint(m, asn)
			wf, wok := snap.Footprint(m, asn)
			if gok != wok || gf != wf {
				t.Fatalf("mapper %d asn %d: footprint (%+v,%v) != (%+v,%v)", m, asn, gf, gok, wf, wok)
			}
		}
	}
}

func TestDeterministicEncoding(t *testing.T) {
	snap := makeSnapshot(t, 11, 10, 4)
	a, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same snapshot differ")
	}
}

func TestWriteFileLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "world.snap")
	snap := makeSnapshot(t, 3, 16, 5)
	if err := WriteFile(path, snap, 9); err != nil {
		t.Fatal(err)
	}
	loaded, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != snap.Digest() || info.Epoch != 9 {
		t.Fatalf("loaded digest %s epoch %d", loaded.Digest(), info.Epoch)
	}
	// Overwrite in place with a different epoch: WriteFile must swap
	// atomically and leave no temp files behind.
	if err := WriteFile(path, snap, 10); err != nil {
		t.Fatal(err)
	}
	if _, info, err = Load(path); err != nil || info.Epoch != 10 {
		t.Fatalf("reloaded epoch %d err %v", info.Epoch, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after overwrite, want just the snapshot", len(entries))
	}
}

func TestLoadRejectsDamage(t *testing.T) {
	snap := makeSnapshot(t, 5, 12, 4)
	blob, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	damage := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrMagic},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrMagic},
		{"version skew", func(b []byte) []byte { b[8] = 99; return b }, ErrVersion},
		{"header only", func(b []byte) []byte { return b[:14] }, ErrTruncated},
		{"cut mid-section", func(b []byte) []byte { return b[:len(b)/3] }, ErrTruncated},
		{"cut trailer", func(b []byte) []byte { return b[:len(b)-70] }, ErrTruncated},
		{"bit flip in body", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }, ErrCorrupt},
		{"bit flip in content digest", func(b []byte) []byte { b[len(b)-40] ^= 0x01; return b }, ErrCorrupt},
		{"bit flip in file hash", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, 1, 2, 3) }, ErrFormat},
		// JSON answers carry the name unescaped; a resealed file must
		// not smuggle a quote into them.
		{"mapper name outside [a-z0-9._-]", func(b []byte) []byte {
			copy(b[bytes.Index(b, []byte("alpha")):], `a"<ph`)
			reseal(b)
			return b
		}, ErrFormat},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mut(append([]byte(nil), blob...))
			s, _, err := Decode(mutated)
			if err == nil {
				t.Fatal("damaged file loaded cleanly")
			}
			if s != nil {
				t.Fatal("damaged load returned a snapshot alongside its error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLoadRejectsDigestSwap rewrites the trailer of a tampered file so
// the file hash passes again; the recomputed content digest must still
// catch that the trailer digest and the content disagree.
func TestLoadRejectsDigestSwap(t *testing.T) {
	snap := makeSnapshot(t, 5, 12, 4)
	blob, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Encode(makeSnapshot(t, 6, 12, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Splice the other snapshot's content digest in and re-seal the
	// file hash — a corruption smart enough to fix the outer checksum.
	forged := append([]byte(nil), blob...)
	copy(forged[len(forged)-64:len(forged)-32], other[len(other)-64:len(other)-32])
	reseal(forged)
	if _, _, err := Decode(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged digest loaded with err %v, want ErrCorrupt", err)
	}
}

// noncanonical lists the ways a stored record can differ from anything
// PutRecord writes. The first four leave Snapshot.Digest's byte stream
// untouched (it covers neither the exact flag nor the reserved bytes),
// so only the loader's canonical-record checks stand between them and
// a snapshot that serves different bytes under the published digest.
// The last four are places no answer may carry: a JSON answer cannot
// even spell a NaN.
var noncanonical = []struct {
	name     string
	exactRow bool
	mut      func(rec []byte)
}{
	{"prefix row with the exact flag", false, func(rec []byte) { rec[28] |= 2 }},
	{"exact row without the exact flag", true, func(rec []byte) { rec[28] &^= 2 }},
	{"unknown flag bit", false, func(rec []byte) { rec[28] |= 0x80 }},
	{"non-zero reserved byte", true, func(rec []byte) { rec[31] = 1 }},
	{"method code out of range", false, func(rec []byte) { rec[29] = 9 }},
	{"found without a method", true, func(rec []byte) { rec[29] = 0 }},
	{"latitude NaN", false, func(rec []byte) { putFloat(rec[0:], math.NaN()) }},
	{"longitude 181", true, func(rec []byte) { putFloat(rec[8:], 181) }},
	{"radius -1", false, func(rec []byte) { putFloat(rec[16:], -1) }},
	{"radius +Inf", true, func(rec []byte) { putFloat(rec[16:], math.Inf(1)) }},
}

func putFloat(b []byte, f float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(f)) }

// findRecord returns the offset inside blob of a found record of
// snap's first mapper — a prefix row's, or an exact row's — so a test
// can damage it in an encoded file or delta (a delta carries only the
// changed groups' records, hence the search).
func findRecord(tb testing.TB, blob []byte, snap *geoserve.Snapshot, exactRow bool) int {
	tb.Helper()
	for _, g := range snap.Groups() {
		page := g.Pages[0]
		if exactRow {
			page = page[len(g.Prefixes)*geoserve.RecordSize:]
		} else {
			page = page[:len(g.Prefixes)*geoserve.RecordSize]
		}
		for ; len(page) > 0; page = page[geoserve.RecordSize:] {
			rec := page[:geoserve.RecordSize]
			if rec[28]&1 == 0 {
				continue
			}
			if at := bytes.Index(blob, rec); at >= 0 {
				return at
			}
		}
	}
	tb.Fatalf("no found record (exact=%v) of the snapshot occurs in the %d-byte blob", exactRow, len(blob))
	return -1
}

// TestLoadRejectsNoncanonicalRecord damages one record of an otherwise
// valid file, reseals the whole-file hash and leaves the content-digest
// trailer alone: the file must fail as malformed, never load.
func TestLoadRejectsNoncanonicalRecord(t *testing.T) {
	snap := makeSnapshot(t, 5, 12, 4)
	blob, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range noncanonical {
		t.Run(tc.name, func(t *testing.T) {
			forged := bytes.Clone(blob)
			at := findRecord(t, forged, snap, tc.exactRow)
			tc.mut(forged[at : at+geoserve.RecordSize])
			reseal(forged)
			if s, _, err := Decode(forged); !errors.Is(err, ErrFormat) || s != nil {
				t.Fatalf("snapshot %v, err %v; want no snapshot and ErrFormat", s != nil, err)
			}
		})
	}
}

// badContent lists the ways a file or delta can carry canonical records
// beside a footprint row or build header that no JSON body can render
// (encoding/json refuses NaN and ±Inf, after a handler committed its
// 200) or that no compile writes. Each case damages the row (of a
// present footprint, or of an absent one) or the header's scale.
var badContent = []struct {
	name    string
	present bool
	mut     func(row, scale []byte)
}{
	{"footprint radius NaN", true, func(row, _ []byte) { putFloat(row[40:], math.NaN()) }},
	{"footprint area -5", true, func(row, _ []byte) { putFloat(row[32:], -5) }},
	{"footprint centroid latitude 91", true, func(row, _ []byte) { putFloat(row[16:], 91) }},
	{"absent footprint with a radius", false, func(row, _ []byte) { putFloat(row[40:], 1) }},
	{"header scale +Inf", true, func(_, scale []byte) { putFloat(scale, math.Inf(1)) }},
	{"header scale NaN", true, func(_, scale []byte) { putFloat(scale, math.NaN()) }},
}

// sectionPayload returns the offset of the n-th section's payload in an
// encoded file or delta.
func sectionPayload(b []byte, n int) int {
	at := len(magic) + 4
	for ; n > 0; n-- {
		at += 8 + int(binary.LittleEndian.Uint64(b[at:]))
	}
	return at + 8
}

// footprintRow returns the encoded row inside blob of a present (or
// absent) footprint of snap, whose first footprint section is section
// first of blob.
func footprintRow(tb testing.TB, blob []byte, snap *geoserve.Snapshot, first int, present bool) []byte {
	tb.Helper()
	for m, fps := range snap.Header().Footprints {
		for i, fp := range fps {
			if (fp.ASN != 0) == present {
				at := sectionPayload(blob, first+m) + i*footprintRowBytes
				return blob[at : at+footprintRowBytes]
			}
		}
	}
	tb.Fatalf("the snapshot has no footprint row with present=%v", present)
	return nil
}

// TestLoadRejectsBadFootprintOrScale damages one footprint row or the
// header scale of an otherwise valid file and reseals the whole-file
// hash: the file must fail as malformed. A footprint is in the content
// digest, so unchecked it would fail only as a digest mismatch; the
// build header is not, so an unchecked scale would load.
func TestLoadRejectsBadFootprintOrScale(t *testing.T) {
	snap := makeSnapshot(t, 5, 12, 8)
	blob, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range badContent {
		t.Run(tc.name, func(t *testing.T) {
			forged := bytes.Clone(blob)
			row := footprintRow(t, forged, snap, 3, tc.present)
			tc.mut(row, forged[sectionPayload(forged, 0)+16:])
			reseal(forged)
			if s, _, err := Decode(forged); !errors.Is(err, ErrFormat) || s != nil {
				t.Fatalf("snapshot %v, err %v; want no snapshot and ErrFormat", s != nil, err)
			}
		})
	}
}

// TestLoadRejectsBadOps runs opDamage through Decode: a file's ops
// are held to the rules a delta's are, and a file has no base, so a
// delete op is refused too. Each damaged file is resealed, its content
// digest left alone.
func TestLoadRejectsBadOps(t *testing.T) {
	snap := makeSnapshot(t, 5, 40, 4) // three leaf groups
	blob, err := Encode(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	nm := len(snap.Mappers())
	if _, _, err := Decode(rewriteOps(t, bytes.Clone(blob), nm, func([]geoserve.Group) {})); err != nil {
		t.Fatalf("ops rewritten unchanged: %v", err)
	}
	for _, tc := range opDamage {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := Decode(rewriteOps(t, bytes.Clone(blob), nm, tc.edit))
			if s != nil || !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("snapshot %v, err %v; want no snapshot and ErrFormat naming %q", s != nil, err, tc.msg)
			}
		})
	}
}

// TestLoadRejectsOpFlood pins that what decodeOps allocates stays
// within the bytes it reads: 2 000 mappers and 2 000 empty ops (57 KB)
// once made it allocate a page list per op per mapper, 99 MB. A file
// refuses the deletes and a delta its base; both read every op first.
func TestLoadRejectsOpFlood(t *testing.T) {
	const n = 2000
	h := geoserve.Header{Footprints: make([][]analysis.ASFootprint, n)}
	for m := range n {
		h.Mappers = append(h.Mappers, fmt.Sprintf("m%d", m))
	}
	ops := make([]geoserve.Group, n)
	for i := range ops {
		ops[i].Base = uint32(i) << 12
	}
	snap := makeSnapshot(t, 5, 12, 4)
	for name, load := range map[string]func() error{
		"file": func() error {
			_, _, err := Decode(write(magic, FormatVersion, make([]byte, 8), h, ops, make([]byte, 32)))
			return err
		},
		"delta": func() error {
			_, _, err := Apply(snap, write(deltaMagic, DeltaFormatVersion, make([]byte, 48), h, ops, make([]byte, 32)))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := load()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: the flood loaded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: reading a 57 KB flood allocated %d bytes (%v)", name, grew, err)
		}
	}
}

// TestMagicsNeverCross pins that a delta never loads as a file and a
// file never applies as a delta, though both are one encoding.
func TestMagicsNeverCross(t *testing.T) {
	old := makeSnapshot(t, 5, 12, 4)
	new := makeSnapshot(t, 6, 12, 4)
	file, err := Encode(new, 2)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Diff(old, new, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s, _, err := Decode(delta); s != nil || !errors.Is(err, ErrMagic) {
		t.Fatalf("a delta decoded as a file: snapshot %v, err %v; want ErrMagic", s != nil, err)
	}
	if s, _, err := Apply(old, file); s != nil || !errors.Is(err, ErrMagic) {
		t.Fatalf("a file applied as a delta: snapshot %v, err %v; want ErrMagic", s != nil, err)
	}
}

// TestLoadRejectsRetiredVersions pins that the retired formats get the
// typed version error, not a parse attempt: version 1 (the old record
// layouts), version 2 (the same bytes as version 3, but trailers naming
// the one-level content digest) and version 3 (one record slab per
// mapper instead of leaf-group ops).
func TestLoadRejectsRetiredVersions(t *testing.T) {
	snap := makeSnapshot(t, 5, 12, 4)
	for _, version := range []byte{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			blob, err := Encode(snap, 1)
			if err != nil {
				t.Fatal(err)
			}
			delta, err := Diff(snap, makeSnapshot(t, 6, 12, 4), 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(magic)], delta[len(deltaMagic)] = version, version
			if _, info, err := Decode(blob); !errors.Is(err, ErrVersion) || info.FormatVersion != uint32(version) {
				t.Fatalf("file: err %v, info %+v; want ErrVersion naming version %d", err, info, version)
			}
			if _, info, err := Apply(snap, delta); !errors.Is(err, ErrVersion) || info.FormatVersion != uint32(version) {
				t.Fatalf("delta: err %v, info %+v; want ErrVersion naming version %d", err, info, version)
			}
		})
	}
}

// TestEncodedSizeExact pins the size a publisher advertises before it
// encodes anything to the length of the file it later serves, and a
// delta's length to the same per-op sizes over the ops it carries.
func TestEncodedSizeExact(t *testing.T) {
	base := makeSnapshot(t, 3, 40, 4)
	for _, tc := range []struct {
		name         string
		label        string
		noFootprints bool
	}{
		{"empty label", "", false},
		{"long label", strings.Repeat("label/", 1000), false},
		{"no footprints", "synthetic", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := base.Header()
			h.Build.Label = tc.label
			if tc.noFootprints {
				h.ASNs, h.Footprints = nil, make([][]analysis.ASFootprint, len(h.Mappers))
			}
			snap, err := geoserve.Derive(nil, h, base.Groups())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := Encode(snap, 7)
			if err != nil {
				t.Fatal(err)
			}
			if got := EncodedSize(snap); got != len(blob) {
				t.Fatalf("EncodedSize %d, Encode wrote %d bytes", got, len(blob))
			}
			// Without its first group: a delta to snap puts that group,
			// and one back deletes it.
			trimmed, err := geoserve.Derive(nil, h, base.Groups()[1:])
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]*geoserve.Snapshot{{trimmed, snap}, {snap, trimmed}} {
				delta, err := Diff(pair[0], pair[1], 1, 2)
				if err != nil {
					t.Fatal(err)
				}
				_, dh, ops, err := read(delta, deltaMagic, DeltaFormatVersion, func(head *decoder) error {
					_, err := head.take(48, "delta head")
					return err
				})
				if err != nil || len(ops) != 1 {
					t.Fatalf("delta carries %d ops (%v), want the one group", len(ops), err)
				}
				if got := encodedSize(48, dh, ops); got != len(delta) {
					t.Fatalf("encodedSize over the delta's ops is %d, Diff wrote %d bytes", got, len(delta))
				}
			}
		})
	}
}

func BenchmarkSnapfileLoad(b *testing.B) {
	snap := makeSnapshot(b, 1, 2000, 200)
	blob, err := Encode(snap, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
