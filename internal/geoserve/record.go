package geoserve

import (
	"encoding/binary"
	"fmt"
	"math"

	"geonet/internal/analysis"
	"geonet/internal/geo"
)

// The record is the one stored form of an answer: memory, the binary
// wire protocol, the snapfile and the snapdelta all hold the same
// RecordSize bytes (layout in wire.go). A mapper's answers are one
// slab of records, prefix rows first (one per /24, in Prefixes order),
// exact rows after (one per address, in IPs order) with the exact flag
// set on the latter.
const (
	// RecordSize is the fixed width of one answer record.
	RecordSize = 32

	recOffLat    = 0
	recOffLon    = 8
	recOffRadius = 16
	recOffASN    = 24
	recOffFlags  = 28
	recOffMethod = 29
	recOffZero   = 30 // two reserved bytes, always zero

	recFlagFound = 1 << 0
	recFlagExact = 1 << 1
)

// PutRecord writes a's record at dst[:RecordSize]; a.IP is not part of
// a record. It is the only function that lays a record out (a delta
// compile's radius patch rewrites that one field of a copied record),
// and it holds what it wrote to checkRecord: an answer whose method is
// not one of geoloc's, or that checkRecord refuses (Found disagreeing
// with having a method, a place off the globe, a bad radius), has no
// record, and dst's bytes are then unspecified.
func PutRecord(dst []byte, a Answer) error {
	code, ok := methodCode(a.Method)
	if !ok {
		return fmt.Errorf("geoserve: no record for an answer with method %q", a.Method)
	}
	dst = dst[:RecordSize]
	binary.LittleEndian.PutUint64(dst[recOffLat:], math.Float64bits(a.Loc.Lat))
	binary.LittleEndian.PutUint64(dst[recOffLon:], math.Float64bits(a.Loc.Lon))
	binary.LittleEndian.PutUint64(dst[recOffRadius:], math.Float64bits(a.RadiusMi))
	binary.LittleEndian.PutUint32(dst[recOffASN:], uint32(int32(a.ASN)))
	var flags byte
	if a.Found {
		flags |= recFlagFound
	}
	if a.Exact {
		flags |= recFlagExact
	}
	dst[recOffFlags] = flags
	dst[recOffMethod] = uint8(code)
	dst[recOffZero], dst[recOffZero+1] = 0, 0
	if err := checkRecord(dst); err != nil {
		return fmt.Errorf("geoserve: no record for %+v: %v", a, err)
	}
	return nil
}

// recordAnswer decodes the record rec as the answer for ip. It is the
// only reader of the layout and validates nothing: a snapshot's
// records were written by PutRecord or checked by FromTables, and
// WireReader runs checkRecord first. It stays within the inlining
// budget (callers pass a slice of exactly RecordSize bytes, which also
// drops the bounds checks): Snapshot.lookup is the serving hot path.
func recordAnswer(ip uint32, rec []byte) Answer {
	flags := rec[recOffFlags]
	return Answer{
		IP:    ip,
		Found: flags&recFlagFound != 0,
		Exact: flags&recFlagExact != 0,
		Loc: geo.Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(rec[recOffLat:])),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(rec[recOffLon:])),
		},
		Method:   methodNames[rec[recOffMethod]],
		ASN:      int(recordASN(rec)),
		RadiusMi: math.Float64frombits(binary.LittleEndian.Uint64(rec[recOffRadius:])),
	}
}

func recordASN(rec []byte) int32 {
	return int32(binary.LittleEndian.Uint32(rec[recOffASN:]))
}

// checkRecord reports what keeps rec[:RecordSize] from being a record
// PutRecord could have written; PutRecord holds its own output to it,
// so the two cannot drift apart. Digest does not cover the exact flag
// or the reserved bytes, so every loader of outside bytes must run
// this (and FromTables the exact-flag check) for equal digests to keep
// meaning byte-identical answers.
func checkRecord(rec []byte) error {
	flags, code := rec[recOffFlags], rec[recOffMethod]
	le := binary.LittleEndian
	loc := geo.Point{
		Lat: math.Float64frombits(le.Uint64(rec[recOffLat:])),
		Lon: math.Float64frombits(le.Uint64(rec[recOffLon:])),
	}
	radius := math.Float64frombits(le.Uint64(rec[recOffRadius:]))
	switch {
	case flags&^(recFlagFound|recFlagExact) != 0:
		return fmt.Errorf("unknown answer flags %#x", flags)
	case code >= uint8(numMethods):
		return fmt.Errorf("method code %d out of range", code)
	case rec[recOffZero] != 0 || rec[recOffZero+1] != 0:
		return fmt.Errorf("nonzero reserved bytes")
	case (flags&recFlagFound != 0) != (code != uint8(methodNone)):
		return fmt.Errorf("found flag %d with method code %d", flags&recFlagFound, code)
	case !loc.Valid():
		return fmt.Errorf("location %v off the globe", loc)
	case !(radius >= 0 && radius <= math.MaxFloat64):
		return fmt.Errorf("radius %v not finite and ≥ 0", radius)
	}
	return nil
}

// Tables is a Snapshot's complete content as the snapshot's own
// slices: the exchange form between geoserve and the snapfile formats.
type Tables struct {
	Build   BuildInfo
	Mappers []string

	// Prefixes holds the /24 interval index (ascending, /24-aligned
	// base addresses); IPs the exactly-answered addresses (ascending);
	// ASNs the footprinted AS union (ascending, positive).
	Prefixes []uint32
	IPs      []uint32
	ASNs     []int32

	// Records[m] is mapper m's slab: RecordSize bytes per row,
	// len(Prefixes) prefix rows then len(IPs) exact rows.
	Records [][]byte

	// Footprints[m][i] is ASNs[i]'s footprint under mapper m; a zero
	// ASN field marks absence under that mapper.
	Footprints [][]analysis.ASFootprint
}

// Tables returns the snapshot's tables. They share the snapshot's
// memory and are read-only; clone before mutating.
func (s *Snapshot) Tables() Tables {
	return Tables{
		Build:      s.build,
		Mappers:    s.mappers,
		Prefixes:   s.prefixes,
		IPs:        s.ips,
		ASNs:       s.asns,
		Records:    s.records,
		Footprints: s.footprints,
	}
}

// FromTables assembles a Snapshot over t, validating every structural
// invariant a lookup relies on — lengths, sort order, alignment,
// mapper names of [a-z0-9._-] only, canonical records, each with its
// location on the globe (no NaN) and its radius finite and ≥ 0 — and
// computing the content digest (it is never trusted from the caller).
// prev, when non-nil, is a snapshot t was derived from — a delta's
// base: the digest reuses its leaf hashes for the groups whose rows
// compare byte-equal (see seal), and nil hashes everything. The tables
// are retained, so callers must not mutate them afterwards. The tables
// may be bytes a decoder read off the network, and the lookup
// directory is built from them here: whatever they hold it takes
// 256 KB, 1 KB per distinct /16 (at most 64 MB, reached by 65 536 rows
// of 36 B each) and 40 B per distinct /24 (TestDirectoryBound).
func FromTables(t Tables, prev *Snapshot) (*Snapshot, error) {
	if len(t.Mappers) == 0 {
		return nil, fmt.Errorf("geoserve: tables with no mappers")
	}
	for i, name := range t.Mappers {
		if err := checkMapperName(name); err != nil {
			return nil, err
		}
		for _, seen := range t.Mappers[:i] {
			if seen == name {
				return nil, fmt.Errorf("geoserve: duplicate mapper %q", name)
			}
		}
	}
	if len(t.Records) != len(t.Mappers) || len(t.Footprints) != len(t.Mappers) {
		return nil, fmt.Errorf("geoserve: %d mappers but %d record slabs, %d footprint tables",
			len(t.Mappers), len(t.Records), len(t.Footprints))
	}
	for i, p := range t.Prefixes {
		if p&0xff != 0 {
			return nil, fmt.Errorf("geoserve: prefix %d not /24-aligned", p)
		}
		if i > 0 && t.Prefixes[i-1] >= p {
			return nil, fmt.Errorf("geoserve: prefix index not strictly ascending at %d", i)
		}
	}
	for i := 1; i < len(t.IPs); i++ {
		if t.IPs[i-1] >= t.IPs[i] {
			return nil, fmt.Errorf("geoserve: exact-address index not strictly ascending at %d", i)
		}
	}
	for i, asn := range t.ASNs {
		if asn <= 0 {
			return nil, fmt.Errorf("geoserve: non-positive footprint ASN %d", asn)
		}
		if i > 0 && t.ASNs[i-1] >= asn {
			return nil, fmt.Errorf("geoserve: ASN index not strictly ascending at %d", i)
		}
	}
	rows := len(t.Prefixes) + len(t.IPs)
	if rows > math.MaxInt32 {
		return nil, fmt.Errorf("geoserve: %d rows exceed the directory's int32 row numbers", rows)
	}
	for m := range t.Mappers {
		if len(t.Records[m]) != rows*RecordSize {
			return nil, fmt.Errorf("geoserve: mapper %d slab is %d bytes, want %d rows × %d", m, len(t.Records[m]), rows, RecordSize)
		}
		if len(t.Footprints[m]) != len(t.ASNs) {
			return nil, fmt.Errorf("geoserve: mapper %d has %d footprints for %d ASNs",
				m, len(t.Footprints[m]), len(t.ASNs))
		}
		for i, fp := range t.Footprints[m] {
			if fp.ASN != 0 && int32(fp.ASN) != t.ASNs[i] {
				return nil, fmt.Errorf("geoserve: mapper %d footprint %d has ASN %d, want 0 or %d",
					m, i, fp.ASN, t.ASNs[i])
			}
		}
		for row := 0; row < rows; row++ {
			rec := t.Records[m][row*RecordSize:][:RecordSize]
			if err := checkRecord(rec); err != nil {
				return nil, fmt.Errorf("geoserve: mapper %d row %d: %v", m, row, err)
			}
			if exact := rec[recOffFlags]&recFlagExact != 0; exact != (row >= len(t.Prefixes)) {
				return nil, fmt.Errorf("geoserve: mapper %d row %d of %d prefix rows has exact=%v", m, row, len(t.Prefixes), exact)
			}
		}
	}
	s := &Snapshot{
		build:      t.Build,
		mappers:    t.Mappers,
		prefixes:   t.Prefixes,
		ips:        t.IPs,
		asns:       t.ASNs,
		records:    t.Records,
		footprints: t.Footprints,
	}
	s.seal(prev)
	return s, nil
}

// checkMapperName admits only names of [a-z0-9._-]+: a name goes into
// JSON answers unescaped, into metric labels and into URL queries.
func checkMapperName(name string) error {
	if name == "" {
		return fmt.Errorf("geoserve: empty mapper name")
	}
	for _, c := range []byte(name) {
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return fmt.Errorf("geoserve: mapper name %q is not [a-z0-9._-]+", name)
		}
	}
	return nil
}
