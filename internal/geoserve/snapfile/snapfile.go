// Package snapfile is the versioned binary on-disk form of a geoserve
// snapshot: the unit of replication between a builder node and its
// replicas, and the cold-start path that makes geoserved startup
// O(snapshot size) instead of O(pipeline).
//
// A snapshot file and a snapshot delta are one encoding, format 4 (all
// integers little-endian):
//
//	magic   [8]byte "geosnapf" (file) or "geosnapd" (delta)
//	version u32     (FormatVersion or DeltaFormatVersion)
//	sections, each a u64 byte-length prefix followed by the payload:
//	  header      file: epoch u64; delta: from epoch u64, to epoch u64,
//	              the base's content digest [32]byte; then build seed
//	              i64, scale f64, label (u32+bytes)
//	  mappers     u32 count, then per mapper u32 len + name bytes
//	  asns        u32 count + count i32 (footprinted AS union, ascending)
//	  footprints  one section per mapper: 48-byte rows (asn i32,
//	              interfaces/locations/degree u32, centroid lat/lon
//	              f64, area f64, radius f64)
//	  ops         u32 count, then per op one leaf group (a /20),
//	              ascending:
//	                base u32 (the /20's first address)
//	                u16 count + count u16 offsets from base (its /24s)
//	                u16 count + count u16 offsets from base (its exact
//	                addresses)
//	                u32 byte count + per mapper the group's page as the
//	                snapshot holds it (geoserve.Group): its prefix
//	                records, then its exact records, each in the wire
//	                protocol's record layout (geoserve/wire.go)
//	              an op with no rows deletes the group
//	trailer [32]byte content digest (= Snapshot.Digest(), raw; a
//	                 delta's names its target)
//	        [32]byte SHA-256 over every preceding byte of the file
//
// A file is a delta from nothing: its ops put every leaf group of the
// snapshot, and Decode derives the snapshot from no base, so a delete
// op in a file is refused. A delta's ops are the groups Diff found
// changed, and Apply derives the target from its base. The leaf hashes
// never travel: a reader recomputes every leaf it does not prove equal
// to its own base's. Older formats have no reader: one binary runs a
// fleet and every snapshot is recompiled from the pipeline, so an old
// file gets ErrVersion.
//
// Decode and Apply never trust their bytes: magic and version gate
// first, every section length and count is bounds-checked against the
// remaining bytes before any allocation, the whole-file hash must
// match, geoserve.Derive revalidates everything lookups and JSON bodies
// rely on, and the content digest is recomputed from the reassembled
// snapshot (Apply sharing only the pages and leaf hashes of the base's
// groups no op names) and compared against the trailer. Derive holds
// the header and groups to the rules a compiled Source meets: mapper
// names of [a-z0-9._-]+ (JSON answers carry them unescaped); sorted,
// /24-aligned indexes, each key inside its op's /20; positive
// ascending ASNs; footprint rows either all zero or their ASN's, with a
// centroid on the globe and an area and radius finite and ≥ 0; and a
// finite header scale (the header is outside the content digest, and
// encoding/json cannot render a NaN or ±Inf). Records arrive as the
// bytes that will be served, so each must be canonical: known flag bits
// only, method code in range, found set exactly when there is a method,
// a location on the globe, a radius finite and ≥ 0, zero reserved
// bytes, and the exact flag set exactly on the exact rows. The last two
// are not redundant with the digest — Snapshot.Digest hashes the fields
// of an answer, which cover neither the exact flag (implied by row
// position) nor the reserved bytes — and without them two files with
// one digest could serve different wire bytes. Truncated, corrupt,
// non-canonical or version-skewed input is rejected with typed errors —
// never a panic, and never a snapshot whose Digest() differs from the
// trailer.
package snapfile

import (
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
const FormatVersion = 4

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

// Encode serialises the snapshot at the given replication epoch: every
// leaf group as a put op.
func Encode(snap *geoserve.Snapshot, epoch uint64) ([]byte, error) {
	digest, err := rawDigest(snap.Digest())
	if err != nil {
		return nil, err
	}
	head := binary.LittleEndian.AppendUint64(nil, epoch)
	return write(magic, FormatVersion, head, snap.Header(), snap.Groups(), digest), nil
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
// elsewhere) and unmapped once Decode returns; either way the returned
// snapshot owns all its memory, since Decode copies the records out.
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

// Decode validates and reassembles an encoded snapshot: geoserve.Derive
// from no base. It retains none of data: the op records are copied out
// once, into one buffer the snapshot owns, and Derive keeps them as is.
func Decode(data []byte) (*geoserve.Snapshot, FileInfo, error) {
	info := FileInfo{SizeBytes: int64(len(data))}
	version, h, ops, err := read(data, magic, FormatVersion, func(head *decoder) (err error) {
		info.Epoch, err = head.u64("epoch")
		return err
	})
	info.FormatVersion, info.Build = version, h.Build
	if err != nil {
		return nil, info, err
	}
	snap, err := assemble(trailerDigest(data), nil, h, ops)
	if err != nil {
		return nil, info, err
	}
	info.Digest = snap.Digest()
	return snap, info, nil
}

// assemble derives the snapshot a file or delta describes from base
// (nil: from nothing) and checks it: geoserve.Derive revalidates every
// invariant a lookup relies on, and the content digest it recomputes
// must equal the one the trailer names, so a loaded or applied snapshot
// can never carry a digest its content does not hash to.
func assemble(wantDigest string, base *geoserve.Snapshot, h geoserve.Header, ops []geoserve.Group) (*geoserve.Snapshot, error) {
	snap, err := geoserve.Derive(base, h, ops)
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
	return encodedSize(8, snap.Header(), snap.Groups())
}

// write lays out a file or a delta (see the package doc): magic and
// version, a header section of head and h's build, h's mappers, ASNs
// and footprints, one op per group of ops, and the trailers naming
// digest. It fills one buffer of encodedSize bytes.
func write(magic string, version uint32, head []byte, h geoserve.Header, ops []geoserve.Group, digest []byte) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, encodedSize(len(head), h, ops))
	buf = le.AppendUint32(append(buf, magic...), version)
	buf = appendSection(buf, func(b []byte) []byte {
		b = le.AppendUint64(append(b, head...), uint64(h.Build.Seed))
		b = appendF64(b, h.Build.Scale)
		return appendString(b, h.Build.Label)
	})
	buf = appendSection(buf, func(b []byte) []byte {
		b = le.AppendUint32(b, uint32(len(h.Mappers)))
		for _, name := range h.Mappers {
			b = appendString(b, name)
		}
		return b
	})
	buf = appendSection(buf, func(b []byte) []byte {
		b = le.AppendUint32(b, uint32(len(h.ASNs)))
		for _, v := range h.ASNs {
			b = le.AppendUint32(b, uint32(v))
		}
		return b
	})
	buf = appendFootprints(buf, h.Footprints)
	buf = appendSection(buf, func(b []byte) []byte {
		b = le.AppendUint32(b, uint32(len(ops)))
		for _, g := range ops {
			b = appendOp(b, g)
		}
		return b
	})
	buf = append(buf, digest...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// encodedSize is the exact length write gives a header section of
// headBytes and h's build, h and ops.
func encodedSize(headBytes int, h geoserve.Header, ops []geoserve.Group) int {
	n := len(magic) + 4
	n += 8 + headBytes + 8 + 8 + 4 + len(h.Build.Label) // header
	n += 8 + 4                                          // mappers
	for _, name := range h.Mappers {
		n += 4 + len(name)
	}
	n += 8 + 4 + 4*len(h.ASNs)
	n += len(h.Mappers) * (8 + len(h.ASNs)*footprintRowBytes)
	n += 8 + 4 // ops
	for _, g := range ops {
		n += opSize(g)
	}
	return n + trailerBytes
}

// opSize is the exact length appendOp gives g.
func opSize(g geoserve.Group) int {
	n := 4 + 2 + 2*len(g.Prefixes) + 2 + 2*len(g.IPs) + 4
	for _, page := range g.Pages {
		n += len(page)
	}
	return n
}

// appendOp emits a leaf group whole: its base, its /24s and exact
// addresses as offsets from the base, and the byte count and bytes of
// its pages, mapper after mapper.
func appendOp(b []byte, g geoserve.Group) []byte {
	b = binary.LittleEndian.AppendUint32(b, g.Base)
	for _, keys := range [][]uint32{g.Prefixes, g.IPs} {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(keys)))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint16(b, uint16(k-g.Base))
		}
	}
	n := 0
	for _, page := range g.Pages {
		n += len(page)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, page := range g.Pages {
		b = append(b, page...)
	}
	return b
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

func rawDigest(hexDigest string) ([]byte, error) {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("snapfile: snapshot digest %q is not a sha256", hexDigest)
	}
	return raw, nil
}
