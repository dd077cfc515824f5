package geoserve

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"

	"geonet/internal/analysis"
	"geonet/internal/parallel"
)

// method codes index methodNames; they are the compact stored form of
// geoloc's Method* strings.
type method uint8

const (
	methodNone method = iota
	methodFeed
	methodHostname
	methodLOC
	methodWhois
	numMethods
)

// methodNames must stay aligned with the method constants; Answer
// returns these static strings so the hit path allocates nothing.
var methodNames = [numMethods]string{"", "feed", "hostname", "loc", "whois"}

func methodCode(name string) (method, bool) {
	for c, n := range methodNames {
		if n == name {
			return method(c), true
		}
	}
	return methodNone, false
}

// Snapshot is the immutable compiled serving index: sorted indexes,
// the records of each leaf group in pages, and a directory derived from
// the indexes. Nothing is mutated after it is sealed, so any number of
// goroutines may query it concurrently without synchronisation.
type Snapshot struct {
	build   BuildInfo
	mappers []string

	// prefixes holds the base address of every allocated /24 in
	// ascending order; ips every known interface address in ascending
	// order.
	prefixes []uint32
	ips      []uint32

	// groups are the index's leaf groups (see groups), ascending.
	// pages[g*len(mappers)+m] is mapper m's page of group g: RecordSize
	// bytes per row (see record.go), the group's prefix rows in prefix
	// order, then its exact rows in address order. A snapshot derived
	// from a predecessor holds the predecessor's page for every group
	// the derivation did not put (see Derive); no page is written once
	// a snapshot is sealed, so pages are shared, never copied on write.
	groups []group
	pages  [][]byte

	// asns holds the union of footprinted AS numbers in ascending
	// order; footprints[m][i] is asns[i]'s footprint under mapper m
	// (ASN == 0 marks absence under that mapper).
	asns       []int32
	footprints [][]analysis.ASFootprint

	// digest is the content digest and tag its first 8 bytes, the
	// epoch tag of the wire protocol; leaves are the digest's leaf
	// hashes, one per group, in group order. Derive takes base's leaves
	// where it takes base's groups, and seal sets the rest.
	digest string
	tag    uint64
	leaves []Leaf

	// dir locates an address's row (see directory). seal derives it
	// from prefixes, ips and groups; it is not content.
	dir *directory
}

// Build reports the pipeline identity the snapshot was compiled from.
func (s *Snapshot) Build() BuildInfo { return s.build }

// Mappers lists the mapper names in index order.
func (s *Snapshot) Mappers() []string {
	out := make([]string, len(s.mappers))
	copy(out, s.mappers)
	return out
}

// MapperIndex resolves a mapper name to its Lookup index.
func (s *Snapshot) MapperIndex(name string) (int, bool) {
	for i, n := range s.mappers {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// mapperByName resolves the mapper a request names; an empty name
// selects the first mapper.
func (s *Snapshot) mapperByName(name string) (int, bool) {
	if name == "" {
		return 0, len(s.mappers) > 0
	}
	return s.MapperIndex(name)
}

// NumPrefixes reports the number of allocated /24s in the index.
func (s *Snapshot) NumPrefixes() int { return len(s.prefixes) }

// NumExactIPs reports the number of exact per-address answers.
func (s *Snapshot) NumExactIPs() int { return len(s.ips) }

// NumFootprints reports the number of footprinted ASes (the union
// across mappers).
func (s *Snapshot) NumFootprints() int { return len(s.asns) }

// Prefixes returns a copy of the allocated /24 base addresses in
// ascending order (load generators build address mixes from it).
func (s *Snapshot) Prefixes() []uint32 {
	out := make([]uint32, len(s.prefixes))
	copy(out, s.prefixes)
	return out
}

// ExactIPs returns a copy of the exactly-answered addresses in
// ascending order.
func (s *Snapshot) ExactIPs() []uint32 {
	out := make([]uint32, len(s.ips))
	copy(out, s.ips)
	return out
}

// Digest is a two-level SHA-256 over the snapshot's complete content
// (mapper names, interval index, every precomputed answer and
// footprint), in a fixed serialisation order (see seal). Two snapshots
// with equal digests serve byte-identical answers, the same discipline
// core.Digest applies to reports — so golden tests pin it across worker
// counts and across hot-swaps to identical rebuilds.
func (s *Snapshot) Digest() string { return s.digest }

// leafBits is the address span of one leaf group: a leaf covers one
// /20, the rows of up to 16 /24 intervals.
const leafBits = 12

// leafBase returns the first address of the leaf group holding addr.
func leafBase(addr uint32) uint32 { return addr &^ (1<<leafBits - 1) }

// Leaf is one leaf group's hash inside the content digest.
type Leaf struct {
	// Base is the group's first address (the /20 of each of its rows).
	Base uint32
	// Sum is the SHA-256 over the group's rows (see seal).
	Sum [32]byte
}

// Leaves returns the digest's leaf hashes, ascending by Base: one per
// leaf group that holds a row. Equal Sums at one Base mean the group's
// keys and pages are identical in both snapshots: snapfile.Diff skips
// those groups and sends every other one whole (see Group). The slice
// is shared and read-only.
func (s *Snapshot) Leaves() []Leaf { return s.leaves }

// search32 finds v in the ascending slice xs: the index of the first
// element not below v, and whether that element is v.
func search32(xs []uint32, v uint32) (int, bool) {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == v {
		return lo, true
	}
	return lo, false
}

// Lookup answers one address under the mapper with the given index
// (see MapperIndex). It allocates nothing: known interface addresses
// return their exact precomputed answer, other addresses inside an
// allocated /24 return the prefix-level answer, and addresses outside
// the allocated space return a zero-valued miss.
func (s *Snapshot) Lookup(mapper int, ip uint32) Answer {
	a, _ := s.lookup(mapper, ip)
	return a
}

// lookup additionally returns the stored method code, so the serving
// metrics path never round-trips it through the method-name string.
func (s *Snapshot) lookup(mapper int, ip uint32) (Answer, method) {
	g, row := s.dir.row(ip)
	rec := s.record(mapper, g, row)
	if rec == nil {
		return Answer{IP: ip}, methodNone
	}
	return recordAnswer(ip, rec), method(rec[recOffMethod])
}

// record returns the stored record at row of group g's page under
// mapper, or nil for a miss (row -1) or an out-of-range mapper. Every
// serving path reads its record here, at the row the directory names
// for its address (directory.row).
func (s *Snapshot) record(mapper, g, row int) []byte {
	if row < 0 || uint(mapper) >= uint(len(s.mappers)) {
		return nil
	}
	return s.page(mapper, g)[row*RecordSize:][:RecordSize]
}

// page returns mapper m's page of group g.
func (s *Snapshot) page(m, g int) []byte { return s.pages[g*len(s.mappers)+m] }

// Footprint returns an AS's geographic footprint under the mapper with
// the given index, or ok=false when the AS was not seen in that
// mapper's dataset.
func (s *Snapshot) Footprint(mapper int, asn int) (analysis.ASFootprint, bool) {
	if mapper < 0 || mapper >= len(s.mappers) || asn <= 0 || asn > math.MaxInt32 {
		return analysis.ASFootprint{}, false
	}
	i, ok := slices.BinarySearch(s.asns, int32(asn))
	if !ok {
		return analysis.ASFootprint{}, false
	}
	fp := s.footprints[mapper][i]
	return fp, fp.ASN != 0
}

// hashWriter serialises snapshot content into a hash with fixed
// little-endian encoding.
type hashWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *hashWriter) flush() {
	if len(w.buf) > 0 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *hashWriter) grow(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

func (w *hashWriter) u32(v uint32) {
	w.grow(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// u32s emits the same bytes as calling u32 per element, chunked
// through the buffer.
func (w *hashWriter) u32s(vs []uint32) {
	for len(vs) > 0 {
		w.grow(4)
		n := (cap(w.buf) - len(w.buf)) / 4
		if n > len(vs) {
			n = len(vs)
		}
		off := len(w.buf)
		w.buf = w.buf[:off+n*4]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(w.buf[off+i*4:], v)
		}
		vs = vs[n:]
	}
}

func (w *hashWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.flush()
	w.h.Write([]byte(s))
}

// records emits, per record, the 30 bytes f64/f64/f64/u32/u8/u8 of
// (lat, lon, radius, asn, method, found): the digest is defined over
// an answer's fields, not over the bytes that store them, which keeps
// a digest — and every golden pinning one — stable across changes of
// the stored layout. The exact flag (implied by row position) and the
// reserved bytes are therefore not in it; seal checks those.
//
// Like u32s it fills the buffer a chunk at a time, and it moves each
// record's fields as whole words: this loop is most of a seal's cost
// besides SHA-256 itself.
func (w *hashWriter) records(page []byte) {
	le := binary.LittleEndian
	for len(page) >= RecordSize {
		w.grow(30)
		n := min((cap(w.buf)-len(w.buf))/30, len(page)/RecordSize)
		off := len(w.buf)
		w.buf = w.buf[:off+n*30]
		for i := range n {
			rec, d := page[i*RecordSize:][:RecordSize], w.buf[off+i*30:][:30]
			le.PutUint64(d[0:], le.Uint64(rec[recOffLat:]))
			le.PutUint64(d[8:], le.Uint64(rec[recOffLon:]))
			le.PutUint64(d[16:], le.Uint64(rec[recOffRadius:]))
			le.PutUint32(d[24:], le.Uint32(rec[recOffASN:]))
			d[28], d[29] = rec[recOffMethod], rec[recOffFlags]&recFlagFound
		}
		page = page[n*RecordSize:]
	}
}

// group is one leaf group's rows: the /24s prefixes[pLo:pHi] and the
// exact addresses ips[iLo:iHi]. Its pages hold the prefix rows first,
// so row r of a page is a prefix row when r < prefixRows(). The rows
// before the group in the index number pLo+iLo.
type group struct {
	base               uint32
	pLo, pHi, iLo, iHi int
}

func (g group) prefixRows() int { return g.pHi - g.pLo }

func (g group) rows() int { return g.pHi - g.pLo + g.iHi - g.iLo }

// groups splits an index (both slices ascending) into its leaf groups,
// ascending: one per /20 that holds a row.
func groups(prefixes, ips []uint32) []group {
	var gs []group
	for pi, ii := 0, 0; pi < len(prefixes) || ii < len(ips); {
		var base uint32
		switch {
		case pi >= len(prefixes):
			base = leafBase(ips[ii])
		case ii >= len(ips):
			base = leafBase(prefixes[pi])
		default:
			base = leafBase(min(prefixes[pi], ips[ii]))
		}
		g := group{base: base, pLo: pi, iLo: ii}
		for pi < len(prefixes) && leafBase(prefixes[pi]) == base {
			pi++
		}
		for ii < len(ips) && leafBase(ips[ii]) == base {
			ii++
		}
		g.pHi, g.iHi = pi, ii
		gs = append(gs, g)
	}
	return gs
}

// groupAt finds the group at base.
func (s *Snapshot) groupAt(base uint32) (int, bool) {
	return slices.BinarySearchFunc(s.groups, base, func(g group, b uint32) int { return cmp.Compare(g.base, b) })
}

// seal computes the content digest and the epoch tag, and builds the
// directory unless the snapshot already shares one (a derivation that
// left the index as it was) while the leaves hash. Derive, the one
// constructor of a Snapshot, ends here, compiled or decoded, so none
// serves without a directory or with an unchecked row, and no lookup
// ever builds a directory.
//
// The digest is two-level. Each leaf group (one /20, see leafBase)
// holding a row gets a leaf: a SHA-256 over its /24s and exact
// addresses (each a u32 count, then the values) and, per mapper, its
// page. The root is a SHA-256 over the mapper names, the row counts,
// every leaf's base and hash, the ASNs and the footprints; BuildInfo
// is deliberately excluded (see Digest).
//
// fresh lists the groups Derive put, whose leaves seal hashes; every
// other group is base's, taken whole with the leaf base's own seal
// computed over the same keys and pages, so an epoch hashes, checks
// and stores only what it changed.
func (s *Snapshot) seal(fresh []int) error {
	var err error
	parallel.Do(func() {
		if s.dir == nil {
			s.dir = buildDirectory(s.prefixes, s.ips, s.groups)
		}
	}, func() { err = s.hash(fresh) })
	return err
}

// hash sets the leaf hash of each fresh group, then the digest and the
// tag, for seal. It holds every row of each fresh group to checkRecord
// and to the exact-flag rule: the rows of every other group are
// base's, which passed when base was sealed.
func (s *Snapshot) hash(fresh []int) error {
	w := &hashWriter{h: sha256.New(), buf: make([]byte, 0, 1<<16)}
	for _, i := range fresh {
		g := s.groups[i]
		w.h.Reset()
		w.u32(uint32(g.pHi - g.pLo))
		w.u32s(s.prefixes[g.pLo:g.pHi])
		w.u32(uint32(g.iHi - g.iLo))
		w.u32s(s.ips[g.iLo:g.iHi])
		for m := range s.mappers {
			page := s.page(m, i)
			for r := range g.rows() {
				rec, exact := page[r*RecordSize:][:RecordSize], r >= g.prefixRows()
				if err := checkRecord(rec); err != nil {
					return fmt.Errorf("geoserve: mapper %d group %s row %d: %v", m, FormatIPv4(g.base), r, err)
				}
				if rec[recOffFlags]&recFlagExact != 0 != exact {
					return fmt.Errorf("geoserve: mapper %d group %s row %d of %d prefix rows has exact=%v",
						m, FormatIPv4(g.base), r, g.prefixRows(), !exact)
				}
			}
			w.records(page)
		}
		w.flush()
		w.h.Sum(s.leaves[i].Sum[:0])
	}

	w.h.Reset()
	w.str("geoserve-snapshot-v2")
	w.u32(uint32(len(s.mappers)))
	for _, name := range s.mappers {
		w.str(name)
	}
	w.u32(uint32(len(s.prefixes)))
	w.u32(uint32(len(s.ips)))
	w.u32(uint32(len(s.leaves)))
	for i := range s.leaves {
		w.u32(s.leaves[i].Base)
		w.grow(32)
		w.buf = append(w.buf, s.leaves[i].Sum[:]...)
	}
	w.u32(uint32(len(s.asns)))
	for _, asn := range s.asns {
		w.u32(uint32(asn))
	}
	// A footprint row is 48 bytes: four u32 counts, then four f64s.
	le := binary.LittleEndian
	for m := range s.mappers {
		for i := range s.footprints[m] {
			fp := &s.footprints[m][i]
			w.grow(48)
			b := le.AppendUint32(w.buf, uint32(fp.ASN))
			b = le.AppendUint32(b, uint32(fp.Interfaces))
			b = le.AppendUint32(b, uint32(fp.Locations))
			b = le.AppendUint32(b, uint32(fp.Degree))
			b = le.AppendUint64(b, math.Float64bits(fp.Centroid.Lat))
			b = le.AppendUint64(b, math.Float64bits(fp.Centroid.Lon))
			b = le.AppendUint64(b, math.Float64bits(fp.AreaSqMi))
			w.buf = le.AppendUint64(b, math.Float64bits(fp.RadiusMi))
		}
	}
	w.flush()
	sum := w.h.Sum(nil)
	s.digest = hex.EncodeToString(sum)
	s.tag = binary.BigEndian.Uint64(sum)
	return nil
}
