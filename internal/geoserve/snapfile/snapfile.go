// Package snapfile is the versioned binary on-disk form of a geoserve
// snapshot: the unit of replication between a builder node and its
// replicas, and the cold-start path that makes geoserved startup
// O(snapshot size) instead of O(pipeline).
//
// Snapshot file layout, format 3 (all integers little-endian):
//
//	magic   [8]byte "geosnapf"
//	version u32     (= FormatVersion)
//	sections, each a u64 byte-length prefix followed by the payload:
//	  header      epoch u64, build seed i64, scale f64, label (u32+bytes)
//	  mappers     u32 count, then per mapper u32 len + name bytes
//	  prefixes    u32 count + count u32 (/24 interval index, ascending)
//	  ips         u32 count + count u32 (exact-address index, ascending)
//	  asns        u32 count + count i32 (footprinted AS union, ascending)
//	  answers     one section per mapper: the mapper's record slab
//	              (geoserve.Tables.Records, gathered from the pages) —
//	              len(prefixes)+len(ips) records of geoserve.RecordSize
//	              bytes, prefix rows then exact rows; the record layout
//	              is the wire protocol's (geoserve/wire.go)
//	  footprints  one section per mapper: 48-byte rows (asn i32,
//	              interfaces/locations/degree u32, centroid lat/lon
//	              f64, area f64, radius f64)
//	trailer [32]byte content digest (= Snapshot.Digest(), raw)
//	        [32]byte SHA-256 over every preceding byte of the file
//
// Snapshot delta layout, format 4 (magic "geosnapd", DeltaFormatVersion;
// see Diff and Apply): the same envelope around a header (from epoch,
// to epoch, the base's content digest, build), the target's mappers,
// asns and footprints sections whole, and one ops section —
//
//	ops   u32 count, then per op, one leaf group (a /20), ascending:
//	        base u32 (the /20's first address)
//	        u16 count + count u16 offsets from base (its /24s)
//	        u16 count + count u16 offsets from base (its exact
//	        addresses)
//	        u32 byte count + per mapper the group's page as the
//	        snapshot holds it (geoserve.Group): its prefix records,
//	        then its exact records
//	      an op with no rows deletes the group
//
// — closed by the target's content digest and the whole-file hash.
// File format 3 lays out its bytes exactly as format 2 did; what changed is
// the content digest the trailers carry, which is two-level since
// format 3 (see geoserve.Snapshot.Digest). The leaf hashes never
// travel: a reader recomputes every leaf it does not prove equal to
// its own base's. Formats 1 (30-byte rows, column-major in the file and
// row-major in the delta) and 2 have no reader, and neither has delta
// format 3 (per-/24 ops): one binary runs a fleet and every snapshot is
// recompiled from the pipeline, so an old file gets ErrVersion.
//
// Load and Apply never trust their bytes: magic and version gate
// first, every section length and count is bounds-checked against the
// remaining bytes before any allocation, the whole-file hash must
// match, geoserve.FromTables (Load) or geoserve.Derive (Apply)
// revalidates everything lookups and JSON bodies rely on, and the
// content digest is recomputed from the reassembled snapshot (Apply
// sharing only the pages and leaf hashes of the base's groups no op
// names) and compared against the trailer. Both hold the tables to
// the rules a compiled Source meets:
// mapper names of [a-z0-9._-]+ (JSON answers carry them unescaped);
// sorted, /24-aligned indexes; positive ascending ASNs; footprint rows
// either all zero or their ASN's, with a centroid on the globe and an
// area and radius finite and ≥ 0; and a finite header scale (the
// header is outside the content digest, and encoding/json cannot
// render a NaN or ±Inf). Records arrive as the bytes that will be
// served, so each must be canonical: known flag bits only, method code
// in range, found set exactly when there is a method, a location on
// the globe, a radius finite and ≥ 0, zero reserved bytes, and the
// exact flag set exactly on the exact rows. The last two are not
// redundant with the digest — Snapshot.Digest hashes the fields of an
// answer, which cover neither the exact flag (implied by row position)
// nor the reserved bytes — and without them two files with one digest
// could serve different wire bytes. Truncated, corrupt, non-canonical
// or version-skewed input is rejected with typed errors — never a
// panic, and never a snapshot whose Digest() differs from the trailer.
package snapfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"geonet/internal/analysis"
	"geonet/internal/geoserve"
)

// FormatVersion is the snapshot file format this package writes and
// the only one it loads.
const FormatVersion = 3

// magic identifies a snapshot file; it never changes across versions.
const magic = "geosnapf"

// Typed load failures; errors.Is distinguishes them.
var (
	// ErrMagic: the file is not a snapshot file at all.
	ErrMagic = errors.New("snapfile: bad magic")
	// ErrVersion: a snapshot file, but a format version this build
	// does not speak.
	ErrVersion = errors.New("snapfile: unsupported format version")
	// ErrTruncated: the file ends before its declared content does.
	ErrTruncated = errors.New("snapfile: truncated file")
	// ErrFormat: a section is malformed (bad count, misordered index,
	// out-of-range code, trailing garbage).
	ErrFormat = errors.New("snapfile: malformed file")
	// ErrCorrupt: the bytes parse but fail a checksum — the file hash
	// or the content digest does not match the reassembled snapshot.
	ErrCorrupt = errors.New("snapfile: corrupt file")
)

// FileInfo reports a loaded file's identity.
type FileInfo struct {
	FormatVersion uint32
	// Epoch is the replication epoch the builder stamped at write time.
	Epoch uint64
	Build geoserve.BuildInfo
	// Digest is the content digest (hex), equal to the loaded
	// snapshot's Digest().
	Digest string
	// SizeBytes is the full encoded size.
	SizeBytes int64
}

const (
	footprintRowBytes = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8
	trailerBytes      = 32 + 32
)

// Encode serialises the snapshot at the given replication epoch.
func Encode(snap *geoserve.Snapshot, epoch uint64) ([]byte, error) {
	digest, err := rawDigest(snap.Digest())
	if err != nil {
		return nil, err
	}
	t := snap.Tables()
	buf := make([]byte, 0, EncodedSize(snap))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = appendSection(buf, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint64(b, epoch)
		return appendBuild(b, t.Build)
	})
	buf = appendMappers(buf, t.Mappers)
	buf = appendSection(buf, func(b []byte) []byte { return appendU32s(b, t.Prefixes) })
	buf = appendSection(buf, func(b []byte) []byte { return appendU32s(b, t.IPs) })
	buf = appendASNs(buf, t.ASNs)
	for _, slab := range t.Records {
		buf = appendSection(buf, func(b []byte) []byte { return append(b, slab...) })
	}
	buf = appendFootprints(buf, t.Footprints)
	return appendTrailer(buf, digest), nil
}

// WriteFile writes the snapshot to path atomically: the bytes land in
// a temporary file in the same directory, are synced, and rename into
// place, so a concurrent Load — or one after a crash — sees either the
// old complete file or the new one, never a half-written hybrid.
func WriteFile(path string, snap *geoserve.Snapshot, epoch uint64) error {
	buf, err := Encode(snap, epoch)
	if err != nil {
		return err
	}
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads, validates and reassembles a snapshot file. On linux the
// file is mmapped for the single decoding pass (heap-copy fallback
// elsewhere); either way the returned snapshot owns all its memory.
func Load(path string) (*geoserve.Snapshot, FileInfo, error) {
	data, done, err := readSnapFile(path)
	if err != nil {
		return nil, FileInfo{}, err
	}
	defer done()
	return Decode(data)
}

// readSnapFileHeap is the portable read path (and the mmap fallback).
func readSnapFileHeap(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}

// Decode validates and reassembles an encoded snapshot. It retains
// none of data: geoserve.FromTables copies every row out once, into
// pages cut from one buffer the snapshot owns.
func Decode(data []byte) (*geoserve.Snapshot, FileInfo, error) {
	info := FileInfo{SizeBytes: int64(len(data))}
	d, version, err := openEnvelope(data, magic, FormatVersion)
	info.FormatVersion = version
	if err != nil {
		return nil, info, err
	}
	var t geoserve.Tables
	header, err := d.section("header")
	if err != nil {
		return nil, info, err
	}
	if info.Epoch, err = header.u64("epoch"); err != nil {
		return nil, info, err
	}
	if t.Build, err = decodeBuild(header); err != nil {
		return nil, info, err
	}
	if err := header.done("header"); err != nil {
		return nil, info, err
	}
	info.Build = t.Build
	if t.Mappers, err = decodeMappers(d); err != nil {
		return nil, info, err
	}
	if t.Prefixes, err = d.u32Section("prefixes"); err != nil {
		return nil, info, err
	}
	if t.IPs, err = d.u32Section("ips"); err != nil {
		return nil, info, err
	}
	if t.ASNs, err = decodeASNs(d); err != nil {
		return nil, info, err
	}
	rows := len(t.Prefixes) + len(t.IPs)
	for m := range t.Mappers {
		sec, err := d.section("answers")
		if err != nil {
			return nil, info, err
		}
		if sec.remaining() != rows*geoserve.RecordSize {
			return nil, info, fmt.Errorf("%w: answers section for mapper %d is %d bytes, want %d rows × %d",
				ErrFormat, m, sec.remaining(), rows, geoserve.RecordSize)
		}
		t.Records = append(t.Records, sec.data)
	}
	if t.Footprints, err = decodeFootprints(d, len(t.Mappers), len(t.ASNs)); err != nil {
		return nil, info, err
	}
	if err := closeEnvelope(data, d); err != nil {
		return nil, info, err
	}
	snap, err := assemble(trailerDigest(data), func() (*geoserve.Snapshot, error) { return geoserve.FromTables(t) })
	if err != nil {
		return nil, info, err
	}
	info.Digest = snap.Digest()
	return snap, info, nil
}

// openEnvelope checks what both formats open with — magic, version,
// room for the trailer — and returns a decoder over the sections in
// between.
func openEnvelope(data []byte, magic string, speaks uint32) (*decoder, uint32, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%w (want %q)", ErrMagic, magic)
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version != speaks {
		return nil, version, fmt.Errorf("%w %d (this build speaks %d)", ErrVersion, version, speaks)
	}
	if len(data) < len(magic)+4+trailerBytes {
		return nil, version, fmt.Errorf("%w: %d bytes is shorter than the minimal file", ErrTruncated, len(data))
	}
	return &decoder{data: data[len(magic)+4 : len(data)-trailerBytes]}, version, nil
}

// closeEnvelope checks what both formats close with once every
// section has parsed: nothing unread before the trailer, and final 32
// bytes that hash everything before them (covering the header fields
// the content digest excludes).
func closeEnvelope(data []byte, d *decoder) error {
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the last section", ErrFormat, d.remaining())
	}
	sum := sha256.Sum256(data[:len(data)-32])
	if !bytes.Equal(sum[:], data[len(data)-32:]) {
		return fmt.Errorf("%w: file hash mismatch", ErrCorrupt)
	}
	return nil
}

// assemble checks a snapshot built from outside bytes: build (which
// is geoserve.FromTables or geoserve.Derive) revalidates every
// invariant a lookup relies on, and the content digest it recomputes
// must equal the one the trailer names, so a loaded or applied snapshot
// can never carry a digest its content does not hash to.
func assemble(wantDigest string, build func() (*geoserve.Snapshot, error)) (*geoserve.Snapshot, error) {
	snap, err := build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if snap.Digest() != wantDigest {
		return nil, fmt.Errorf("%w: content hashes to %s, trailer names %s", ErrCorrupt, snap.Digest(), wantDigest)
	}
	return snap, nil
}

// trailerDigest is the content digest (hex) a file's trailer names.
func trailerDigest(data []byte) string {
	return hex.EncodeToString(data[len(data)-trailerBytes : len(data)-32])
}

// EncodedSize is len(Encode(snap, epoch)) for any epoch, computed
// without encoding: a publisher advertises the size of a file it has
// not built yet.
func EncodedSize(snap *geoserve.Snapshot) int {
	mappers := snap.Mappers()
	n := len(magic) + 4
	n += 8 + 8 + 8 + 8 + 4 + len(snap.Build().Label) // header
	n += 8 + 4                                       // mappers
	for _, name := range mappers {
		n += 4 + len(name)
	}
	n += 8 + 4 + 4*snap.NumPrefixes()
	n += 8 + 4 + 4*snap.NumExactIPs()
	n += 8 + 4 + 4*snap.NumFootprints()
	n += len(mappers) * (8 + (snap.NumPrefixes()+snap.NumExactIPs())*geoserve.RecordSize)
	n += len(mappers) * (8 + snap.NumFootprints()*footprintRowBytes)
	return n + trailerBytes
}

// appendSection emits a u64 length prefix followed by fill's payload,
// patching the length afterwards so payloads build in one pass.
func appendSection(buf []byte, fill func([]byte) []byte) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = fill(buf)
	binary.LittleEndian.PutUint64(buf[at:], uint64(len(buf)-at-8))
	return buf
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendU32s(b []byte, xs []uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
	for _, v := range xs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// The append functions below and their decode counterparts in
// decode.go are the sections the snapshot and delta formats share.

// appendBuild emits the build identity a header section ends with.
func appendBuild(b []byte, build geoserve.BuildInfo) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(build.Seed))
	b = appendF64(b, build.Scale)
	return appendString(b, build.Label)
}

func appendMappers(buf []byte, names []string) []byte {
	return appendSection(buf, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
		for _, name := range names {
			b = appendString(b, name)
		}
		return b
	})
}

func appendASNs(buf []byte, asns []int32) []byte {
	return appendSection(buf, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(asns)))
		for _, v := range asns {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	})
}

// appendFootprints emits one section per mapper.
func appendFootprints(buf []byte, footprints [][]analysis.ASFootprint) []byte {
	for _, fps := range footprints {
		buf = appendSection(buf, func(b []byte) []byte {
			for i := range fps {
				fp := &fps[i]
				b = binary.LittleEndian.AppendUint32(b, uint32(fp.ASN))
				b = binary.LittleEndian.AppendUint32(b, uint32(fp.Interfaces))
				b = binary.LittleEndian.AppendUint32(b, uint32(fp.Locations))
				b = binary.LittleEndian.AppendUint32(b, uint32(fp.Degree))
				b = appendF64(b, fp.Centroid.Lat)
				b = appendF64(b, fp.Centroid.Lon)
				b = appendF64(b, fp.AreaSqMi)
				b = appendF64(b, fp.RadiusMi)
			}
			return b
		})
	}
	return buf
}

// appendTrailer closes a file: the content digest, then a SHA-256 over
// every byte before it.
func appendTrailer(buf, digest []byte) []byte {
	buf = append(buf, digest...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

func rawDigest(hexDigest string) ([]byte, error) {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("snapfile: snapshot digest %q is not a sha256", hexDigest)
	}
	return raw, nil
}
