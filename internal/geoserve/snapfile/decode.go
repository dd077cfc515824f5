package snapfile

import (
	"encoding/binary"
	"fmt"
	"math"

	"geonet/internal/analysis"
	"geonet/internal/geoserve"
)

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

// u32Section consumes a whole section holding a u32 count followed by
// exactly count little-endian u32s.
func (d *decoder) u32Section(what string) ([]uint32, error) {
	sec, err := d.section(what)
	if err != nil {
		return nil, err
	}
	n, err := sec.u32(what + " count")
	if err != nil {
		return nil, err
	}
	if int(n)*4 != sec.remaining() {
		return nil, fmt.Errorf("%w: %s count %d does not match %d payload bytes", ErrFormat, what, n, sec.remaining())
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = sec.rawU32()
	}
	return out, nil
}

// offsets consumes a u16 count and count u16 offsets, and returns base
// plus each offset.
func (d *decoder) offsets(base uint32, what string) ([]uint32, error) {
	b, err := d.take(2, what+" count")
	if err != nil {
		return nil, err
	}
	raw, err := d.take(2*int(binary.LittleEndian.Uint16(b)), what)
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

func decodeASNs(d *decoder) ([]int32, error) {
	raw, err := d.u32Section("asns")
	if err != nil {
		return nil, err
	}
	asns := make([]int32, len(raw))
	for i, v := range raw {
		asns[i] = int32(v)
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
