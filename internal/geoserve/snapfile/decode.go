package snapfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"geonet/internal/analysis"
	"geonet/internal/geoserve"
)

// read parses a file or a delta (see write): magic and version, a
// header section that head reads the start of and the build ends,
// the mappers, ASNs, footprints and ops, nothing unread before the
// trailer, and final 32 bytes that hash everything before them
// (covering the header fields the content digest excludes). The ops'
// pages are copied out of data; h's build is set once the header
// parsed, whatever fails later.
func read(data []byte, magic string, speaks uint32, head func(*decoder) error) (version uint32, h geoserve.Header, ops []geoserve.Group, err error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return 0, h, nil, fmt.Errorf("%w (want %q)", ErrMagic, magic)
	}
	version = binary.LittleEndian.Uint32(data[len(magic):])
	if version != speaks {
		return version, h, nil, fmt.Errorf("%w %d (this build speaks %d)", ErrVersion, version, speaks)
	}
	if len(data) < len(magic)+4+trailerBytes {
		return version, h, nil, fmt.Errorf("%w: %d bytes is shorter than the minimal file", ErrTruncated, len(data))
	}
	d := &decoder{data: data[len(magic)+4 : len(data)-trailerBytes]}
	header, err := d.section("header")
	if err == nil {
		err = head(header)
	}
	if err == nil {
		h.Build, err = decodeBuild(header)
	}
	if err == nil {
		err = header.done("header")
	}
	if err == nil {
		h.Mappers, err = decodeMappers(d)
	}
	if err == nil {
		h.ASNs, err = decodeASNs(d)
	}
	if err == nil {
		h.Footprints, err = decodeFootprints(d, len(h.Mappers), len(h.ASNs))
	}
	if err == nil {
		ops, err = decodeOps(d, len(h.Mappers))
	}
	if err != nil {
		return version, h, nil, err
	}
	if d.remaining() != 0 {
		return version, h, nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrFormat, d.remaining())
	}
	sum := sha256.Sum256(data[:len(data)-32])
	if !bytes.Equal(sum[:], data[len(data)-32:]) {
		return version, h, nil, fmt.Errorf("%w: file hash mismatch", ErrCorrupt)
	}
	return version, h, ops, nil
}

// decoder walks an encoded byte slice with bounds-checked reads; every
// overrun surfaces as ErrTruncated (the declared content ends past the
// actual bytes) and every inconsistent count as ErrFormat.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) take(n int, what string) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, fmt.Errorf("%w: %s needs %d bytes, %d left", ErrTruncated, what, n, d.remaining())
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

// section consumes a u64 length prefix and returns a sub-decoder over
// exactly that payload.
func (d *decoder) section(what string) (*decoder, error) {
	b, err := d.take(8, what+" section length")
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(d.remaining()) {
		return nil, fmt.Errorf("%w: %s section declares %d bytes, %d left", ErrTruncated, what, n, d.remaining())
	}
	payload, _ := d.take(int(n), what+" section")
	return &decoder{data: payload}, nil
}

// done rejects unconsumed payload at the end of a section.
func (d *decoder) done(what string) error {
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s section", ErrFormat, d.remaining(), what)
	}
	return nil
}

func (d *decoder) u32(what string) (uint32, error) {
	b, err := d.take(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64(what string) (uint64, error) {
	b, err := d.take(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) f64(what string) (float64, error) {
	v, err := d.u64(what)
	return math.Float64frombits(v), err
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.u32(what + " length")
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// offsets consumes a u16 count and count u16 offsets, and returns base
// plus each offset.
func (d *decoder) offsets(base uint32) ([]uint32, error) {
	b, err := d.take(2, "op key count")
	if err != nil {
		return nil, err
	}
	raw, err := d.take(2*int(binary.LittleEndian.Uint16(b)), "op keys")
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(raw)/2)
	for i := range out {
		out[i] = base + uint32(binary.LittleEndian.Uint16(raw[2*i:]))
	}
	return out, nil
}

// The raw readers skip per-read error checks; callers use them only
// after verifying the section holds exactly the bytes they will
// consume.

func (d *decoder) rawU32() uint32 {
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) rawF64() float64 {
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

func decodeBuild(header *decoder) (build geoserve.BuildInfo, err error) {
	seed, err := header.u64("build seed")
	if err != nil {
		return build, err
	}
	build.Seed = int64(seed)
	if build.Scale, err = header.f64("build scale"); err != nil {
		return build, err
	}
	build.Label, err = header.str("build label")
	return build, err
}

func decodeMappers(d *decoder) ([]string, error) {
	sec, err := d.section("mappers")
	if err != nil {
		return nil, err
	}
	n, err := sec.u32("mapper count")
	if err != nil {
		return nil, err
	}
	// Each mapper name costs at least its 4-byte length prefix, so the
	// count is bounded by the section payload before anything allocates.
	if uint64(n)*4 > uint64(sec.remaining()) {
		return nil, fmt.Errorf("%w: mapper count %d exceeds section size", ErrFormat, n)
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = sec.str("mapper name"); err != nil {
			return nil, err
		}
	}
	return names, sec.done("mappers")
}

// decodeASNs consumes a section holding a u32 count followed by
// exactly count ASNs.
func decodeASNs(d *decoder) ([]int32, error) {
	sec, err := d.section("asns")
	if err != nil {
		return nil, err
	}
	n, err := sec.u32("asn count")
	if err != nil {
		return nil, err
	}
	if int(n)*4 != sec.remaining() {
		return nil, fmt.Errorf("%w: asn count %d does not match %d payload bytes", ErrFormat, n, sec.remaining())
	}
	asns := make([]int32, n)
	for i := range asns {
		asns[i] = int32(sec.rawU32())
	}
	return asns, nil
}

// decodeFootprints consumes one section per mapper, each exactly nASNs
// rows.
func decodeFootprints(d *decoder, nMappers, nASNs int) ([][]analysis.ASFootprint, error) {
	out := make([][]analysis.ASFootprint, nMappers)
	for m := range out {
		sec, err := d.section("footprints")
		if err != nil {
			return nil, err
		}
		if sec.remaining() != nASNs*footprintRowBytes {
			return nil, fmt.Errorf("%w: footprint section for mapper %d is %d bytes, want %d rows × %d",
				ErrFormat, m, sec.remaining(), nASNs, footprintRowBytes)
		}
		fps := make([]analysis.ASFootprint, nASNs)
		for i := range fps {
			fp := &fps[i]
			fp.ASN = int(int32(sec.rawU32()))
			fp.Interfaces = int(sec.rawU32())
			fp.Locations = int(sec.rawU32())
			fp.Degree = int(sec.rawU32())
			fp.Centroid.Lat = sec.rawF64()
			fp.Centroid.Lon = sec.rawF64()
			fp.AreaSqMi = sec.rawF64()
			fp.RadiusMi = sec.rawF64()
		}
		out[m] = fps
	}
	return out, nil
}

// decodeOps parses the ops section into geoserve.Derive's groups. An
// op's record bytes must be one page of its rows per mapper. Derive keeps
// the pages it is handed and data may be a mapping Load unmaps, so the
// pages are copied into one buffer sized to the record bytes read; every
// op with no rows shares one list of empty pages. What is allocated stays
// within the bytes read, whatever the mapper count.
func decodeOps(d *decoder, nMappers int) ([]geoserve.Group, error) {
	sec, err := d.section("ops")
	if err != nil {
		return nil, err
	}
	nOps, err := sec.u32("op count")
	if err != nil {
		return nil, err
	}
	// Every op costs at least its 12-byte base, key counts and record
	// byte count, bounding the count before anything allocates.
	if uint64(nOps)*12 > uint64(sec.remaining()) {
		return nil, fmt.Errorf("%w: op count %d exceeds section size", ErrFormat, nOps)
	}
	ops := make([]geoserve.Group, nOps)
	none := make([][]byte, nMappers)
	total := 0
	for i := range ops {
		op := &ops[i]
		if op.Base, err = sec.u32("op base"); err != nil {
			return nil, err
		}
		if op.Prefixes, err = sec.offsets(op.Base); err != nil {
			return nil, err
		}
		if op.IPs, err = sec.offsets(op.Base); err != nil {
			return nil, err
		}
		n, err := sec.u32("op record bytes")
		if err != nil {
			return nil, err
		}
		size := (len(op.Prefixes) + len(op.IPs)) * geoserve.RecordSize
		if uint64(n) != uint64(size)*uint64(nMappers) {
			return nil, fmt.Errorf("%w: op %s carries %d record bytes, want %d rows × %d bytes per mapper for %d mappers",
				ErrFormat, geoserve.FormatIPv4(op.Base), n, size/geoserve.RecordSize, geoserve.RecordSize, nMappers)
		}
		recs, err := sec.take(int(n), "op records")
		if err != nil {
			return nil, err
		}
		op.Pages = none
		if size > 0 {
			op.Pages = make([][]byte, nMappers)
			for m := range op.Pages {
				op.Pages[m] = recs[m*size : (m+1)*size]
			}
		}
		total += int(n)
	}
	if err := sec.done("ops"); err != nil {
		return nil, err
	}
	buf := make([]byte, total)
	for _, op := range ops {
		for m := 0; len(op.Prefixes)+len(op.IPs) > 0 && m < nMappers; m++ {
			n := copy(buf, op.Pages[m])
			op.Pages[m], buf = buf[:n:n], buf[n:]
		}
	}
	return ops, nil
}
