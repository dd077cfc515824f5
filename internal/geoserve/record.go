package geoserve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

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
	case !finiteNonNeg(radius):
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
// invariant a lookup relies on and computing the content digest (it is
// never trusted from the caller). check holds the names, indexes,
// footprints and build scale to the rules a compiled Source meets;
// FromTables adds the lengths and canonical records — each with its
// location on the globe (no NaN) and its radius finite and ≥ 0, and
// the exact flag set exactly on the exact rows.
//
// prev, when non-nil, is a snapshot t was derived from — a delta's
// base — and touched lists the /24 bases whose rows may differ from
// prev's. The caller promises that every other row is prev's row at the
// same key: a leaf group in which no touched /24 lies then takes prev's
// leaf hash, and its records, which passed these checks when prev was
// sealed, are not checked again (see seal). Such a group's keys must
// equal prev's, or FromTables fails. With prev nil every row is checked
// and hashed. The tables are retained, so callers must not mutate them
// afterwards. The tables may be bytes a decoder read off the network,
// and the lookup directory is built from them here: whatever they hold
// it takes 256 KB, 1 KB per distinct /16 (at most 64 MB, reached by
// 65 536 rows of 36 B each) and 40 B per distinct /24
// (TestDirectoryBound).
func FromTables(t Tables, prev *Snapshot, touched []uint32) (*Snapshot, error) {
	s := &Snapshot{
		build:      t.Build,
		mappers:    t.Mappers,
		prefixes:   t.Prefixes,
		ips:        t.IPs,
		asns:       t.ASNs,
		records:    t.Records,
		footprints: t.Footprints,
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	rows := len(t.Prefixes) + len(t.IPs)
	switch {
	case len(t.Records) != len(t.Mappers):
		return nil, fmt.Errorf("geoserve: %d mappers but %d record slabs", len(t.Mappers), len(t.Records))
	case rows > math.MaxInt32:
		return nil, fmt.Errorf("geoserve: %d rows exceed the directory's int32 row numbers", rows)
	}
	for m, slab := range t.Records {
		if len(slab) != rows*RecordSize {
			return nil, fmt.Errorf("geoserve: mapper %d slab is %d bytes, want %d rows × %d", m, len(slab), rows, RecordSize)
		}
	}
	hashed, err := s.seal(prev, touched)
	if err != nil {
		return nil, err
	}
	np := len(t.Prefixes)
	for _, g := range hashed {
		for m, slab := range t.Records {
			for _, span := range [2][2]int{{g.pLo, g.pHi}, {np + g.iLo, np + g.iHi}} {
				for row := span[0]; row < span[1]; row++ {
					rec := slab[row*RecordSize:][:RecordSize]
					if err := checkRecord(rec); err != nil {
						return nil, fmt.Errorf("geoserve: mapper %d row %d: %v", m, row, err)
					}
					if exact := rec[recOffFlags]&recFlagExact != 0; exact != (row >= np) {
						return nil, fmt.Errorf("geoserve: mapper %d row %d of %d prefix rows has exact=%v", m, row, np, exact)
					}
				}
			}
		}
	}
	return s, nil
}

// check holds a snapshot's names, indexes, footprints and build scale
// to the rules lookups and JSON bodies rely on, wherever they came
// from: skeleton runs it on a compiled Source and FromTables on tables
// that may be outside bytes. The rules: at least one mapper, each named
// by [a-z0-9._-]+ (JSON answers, metric labels and URL queries carry
// the name unescaped) and none twice; /24-aligned prefixes and exact
// addresses, both strictly ascending; positive ASNs, strictly
// ascending; per mapper one footprint row per ASN (checkFootprint); and
// a finite build scale. encoding/json refuses NaN and ±Inf only after
// a handler has committed its 200, so a float that breaks these rules
// would be served as an empty body.
func (s *Snapshot) check() error {
	if len(s.mappers) == 0 {
		return fmt.Errorf("geoserve: no mappers")
	}
	for i, name := range s.mappers {
		if name == "" || strings.Trim(name, "abcdefghijklmnopqrstuvwxyz0123456789._-") != "" {
			return fmt.Errorf("geoserve: mapper name %q is not [a-z0-9._-]+", name)
		}
		if slices.Contains(s.mappers[:i], name) {
			return fmt.Errorf("geoserve: duplicate mapper %q", name)
		}
	}
	for i, p := range s.prefixes {
		if p&0xff != 0 || i > 0 && p <= s.prefixes[i-1] {
			return fmt.Errorf("geoserve: prefix %d (%s) is not a /24 base above its predecessor", i, FormatIPv4(p))
		}
	}
	for i := 1; i < len(s.ips); i++ {
		if s.ips[i] <= s.ips[i-1] {
			return fmt.Errorf("geoserve: exact address %d (%s) is not above its predecessor", i, FormatIPv4(s.ips[i]))
		}
	}
	for i, asn := range s.asns {
		if asn <= 0 || i > 0 && asn <= s.asns[i-1] {
			return fmt.Errorf("geoserve: footprint ASN %d (AS%d) is not positive and above its predecessor", i, asn)
		}
	}
	if len(s.footprints) != len(s.mappers) {
		return fmt.Errorf("geoserve: %d mappers but %d footprint tables", len(s.mappers), len(s.footprints))
	}
	for m, fps := range s.footprints {
		if len(fps) != len(s.asns) {
			return fmt.Errorf("geoserve: mapper %d has %d footprints for %d ASNs", m, len(fps), len(s.asns))
		}
		for i, fp := range fps {
			if err := checkFootprint(fp, s.asns[i]); err != nil {
				return fmt.Errorf("geoserve: mapper %d footprint %d: %v", m, i, err)
			}
		}
	}
	if math.IsNaN(s.build.Scale) || math.IsInf(s.build.Scale, 0) {
		return fmt.Errorf("geoserve: build scale %v is not finite", s.build.Scale)
	}
	return nil
}

// checkFootprint holds one footprint row, the one at asn's index, to
// what GET /v1/as/{asn}/footprint can render: absent (ASN 0) and all
// zero, as skeleton leaves a mapper's missing ASN; or asn's, with its
// centroid on the globe, its area and radius finite and ≥ 0 and its
// counts ≥ 0.
func checkFootprint(fp analysis.ASFootprint, asn int32) error {
	switch {
	case fp.ASN == 0 && fp != (analysis.ASFootprint{}):
		return fmt.Errorf("absent (ASN 0) but not zero: %+v", fp)
	case fp.ASN == 0:
		return nil
	case fp.ASN != int(asn):
		return fmt.Errorf("ASN %d, want 0 or %d", fp.ASN, asn)
	case !fp.Centroid.Valid():
		return fmt.Errorf("centroid %v off the globe", fp.Centroid)
	case !finiteNonNeg(fp.AreaSqMi) || !finiteNonNeg(fp.RadiusMi):
		return fmt.Errorf("area %v or radius %v not finite and ≥ 0", fp.AreaSqMi, fp.RadiusMi)
	case fp.Interfaces < 0 || fp.Locations < 0 || fp.Degree < 0:
		return fmt.Errorf("negative counts %d/%d/%d", fp.Interfaces, fp.Locations, fp.Degree)
	}
	return nil
}

// finiteNonNeg reports whether f is finite and ≥ 0 (NaN is not).
func finiteNonNeg(f float64) bool { return f >= 0 && f <= math.MaxFloat64 }
