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
// RecordSize bytes (layout in wire.go). A mapper's answers are pages of
// records, one per leaf group (see Group): the group's prefix rows
// first (one per /24, ascending), its exact rows after (one per
// address, ascending) with the exact flag set on the latter.
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
// records were checked by seal as Derive built it, and
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
// or the reserved bytes, so seal runs this (and the exact-flag check)
// on every row a derivation brings in, for equal digests to keep
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

// Header is what a snapshot holds beside its leaf groups: its build,
// mapper names, footprinted ASNs (ascending, positive) and footprints
// (Footprints[m][i] is ASNs[i]'s under mapper m; a zero ASN field marks
// absence under that mapper). A snapshot file and a delta carry it
// whole.
type Header struct {
	Build      BuildInfo
	Mappers    []string
	ASNs       []int32
	Footprints [][]analysis.ASFootprint
}

// Header returns the snapshot's header, shared and read-only.
func (s *Snapshot) Header() Header {
	return Header{Build: s.build, Mappers: s.mappers, ASNs: s.asns, Footprints: s.footprints}
}

// Group is one leaf group whole, the unit a snapshot holds its index
// and records in and a snapshot file and a delta carry: its /20 base, its /24s and exact addresses (ascending, each
// inside the /20), and one page per mapper holding the group's prefix
// records and then its exact records, as the snapshot stores them. A
// group with no rows is a delete.
type Group struct {
	Base     uint32
	Prefixes []uint32
	IPs      []uint32
	Pages    [][]byte
}

// key returns the index key of row r of g's pages: a /24 base or an
// exact address.
func (g Group) key(r int) uint32 {
	if r < len(g.Prefixes) {
		return g.Prefixes[r]
	}
	return g.IPs[r-len(g.Prefixes)]
}

// sameKeys reports whether g and o hold the same /24s and the same
// exact addresses.
func (g Group) sameKeys(o Group) bool {
	return slices.Equal(g.Prefixes, o.Prefixes) && slices.Equal(g.IPs, o.IPs)
}

// Groups returns every leaf group of the snapshot, ascending: the ops
// of a snapshot file. The slice is the caller's; the keys and pages of
// its groups are the snapshot's, shared and read-only.
func (s *Snapshot) Groups() []Group { return slices.Clone(s.groups) }

// Derive, the one constructor of a Snapshot, assembles the snapshot a
// file, a delta or a compile describes: base with each group in gs put
// in place of base's group at its base, or removed when it has no rows
// (base must then hold it), and h's build, mappers, ASNs and
// footprints. A nil base is the empty snapshot of h's mappers, so a
// derivation from nothing holds exactly gs and refuses a group with no
// rows. Groups ascend by base.
//
// It is one ascending merge of base's groups and gs: each group of the
// result is base's, taken whole (keys, pages and leaf hash), or a put,
// taken whole (keys and pages). Derive keeps the keys and pages it is
// handed, without copying them: its callers never write them again,
// and the result retains them, base's memory in the groups it shares,
// and h. The result shares base's directory when every put keeps the
// keys of base's group at its base.
//
// Everything is checked, nothing trusted: check holds h to the rules a
// compiled Source meets, each put's keys must be /24 bases and
// addresses inside its /20, strictly ascending, each put group's
// records must be canonical (checkRecord: a location on the globe, no
// NaN, a radius finite and ≥ 0) with the exact flag set exactly on the
// exact rows (seal checks both as it hashes them), and the digest is
// recomputed. The groups may be bytes a decoder read
// off the network, and the lookup directory is built from them here:
// whatever they hold it takes 256 KB, 1 KB per distinct /16 (at most
// 64 MB, reached by 65 536 one-row ops of 46 B each) and 40 B per
// distinct /24 (TestDirectoryBound), beside 80 B of group and 24 B of
// page header per mapper for each /20 that holds a row.
func Derive(base *Snapshot, h Header, gs []Group) (*Snapshot, error) {
	if base == nil {
		base = &Snapshot{mappers: h.Mappers}
	}
	nm := len(base.mappers)
	if !slices.Equal(h.Mappers, base.mappers) {
		return nil, fmt.Errorf("geoserve: derive: mappers %q, base has %q", h.Mappers, base.mappers)
	}
	// Each put is checked and matched against base's group at its base,
	// which sizes the result and tells whether the index moves.
	ng, same := len(base.groups), true
	for i, k := 0, 0; i < len(gs); i++ {
		g := &gs[i]
		if leafBase(g.Base) != g.Base || i > 0 && g.Base <= gs[i-1].Base {
			return nil, fmt.Errorf("geoserve: group %d: %s is not a /20 base above its predecessor", i, FormatIPv4(g.Base))
		}
		for j, p := range g.Prefixes {
			if p&0xff != 0 || leafBase(p) != g.Base || j > 0 && p <= g.Prefixes[j-1] {
				return nil, fmt.Errorf("geoserve: group %s: %s is not a /24 base inside it above its predecessor", FormatIPv4(g.Base), FormatIPv4(p))
			}
		}
		for j, ip := range g.IPs {
			if leafBase(ip) != g.Base || j > 0 && ip <= g.IPs[j-1] {
				return nil, fmt.Errorf("geoserve: group %s: exact address %s is not inside it above its predecessor", FormatIPv4(g.Base), FormatIPv4(ip))
			}
		}
		rows := len(g.Prefixes) + len(g.IPs)
		if len(g.Pages) != nm || slices.ContainsFunc(g.Pages, func(p []byte) bool { return len(p) != rows*RecordSize }) {
			return nil, fmt.Errorf("geoserve: group %s carries %d pages, want one of %d bytes per mapper (%d rows) for %d mappers",
				FormatIPv4(g.Base), len(g.Pages), rows*RecordSize, rows, nm)
		}
		for k < len(base.groups) && base.groups[k].Base < g.Base {
			k++
		}
		if k < len(base.groups) && base.groups[k].Base == g.Base {
			same = same && g.sameKeys(base.groups[k])
			ng--
		} else if rows == 0 {
			return nil, fmt.Errorf("geoserve: group %s has no rows, and base does not hold it to delete", FormatIPv4(g.Base))
		} else {
			same = false
		}
		if rows > 0 {
			ng++
		}
	}

	s := &Snapshot{
		build: h.Build, mappers: base.mappers, asns: h.ASNs, footprints: h.Footprints,
		groups: make([]Group, 0, ng), pages: make([][]byte, 0, ng*nm), leaves: make([]Leaf, 0, ng),
	}
	if same {
		s.dir = base.dir
	}
	// s.pages is sized up front, so appending never moves it, and each
	// group's Pages is its own run of s.pages: a kept group pins no page
	// header array of an earlier epoch.
	add := func(g Group, leaf Leaf) {
		s.pages = append(s.pages, g.Pages...)
		g.Pages = s.pages[len(s.pages)-nm : len(s.pages) : len(s.pages)]
		s.groups = append(s.groups, g)
		s.leaves = append(s.leaves, leaf)
	}
	fresh := make([]int, 0, len(gs)) // the puts' indexes in s.groups, for seal to hash
	for i, k := 0, 0; i < len(gs) || k < len(base.groups); {
		if i == len(gs) || k < len(base.groups) && base.groups[k].Base < gs[i].Base {
			add(base.groups[k], base.leaves[k])
			k++
			continue
		}
		if k < len(base.groups) && base.groups[k].Base == gs[i].Base {
			k++ // replaced or deleted
		}
		if g := gs[i]; len(g.Prefixes)+len(g.IPs) > 0 {
			fresh = append(fresh, len(s.leaves))
			add(g, Leaf{Base: g.Base})
		}
		i++
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	if err := s.seal(fresh); err != nil {
		return nil, err
	}
	return s, nil
}

// check holds a snapshot's names, footprints and build scale to the
// rules lookups and JSON bodies rely on, wherever they came from:
// skeleton runs it on a compiled Source and Derive on a header that may
// be outside bytes (Derive checks each put's keys itself). The rules:
// at least one mapper, each named by [a-z0-9._-]+ (JSON answers, metric
// labels and URL queries carry the name unescaped) and none twice;
// positive ASNs, strictly ascending; per mapper one footprint row per
// ASN (checkFootprint); and a finite build scale. encoding/json refuses
// NaN and ±Inf only after a handler has committed its 200, so a float
// that breaks these rules would be served as an empty body.
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
