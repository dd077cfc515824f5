package geoserve

import (
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

// Snapshot is the immutable compiled serving index: its leaf groups,
// each holding its own keys and pages, and a directory derived from
// them. Nothing is mutated after it is sealed, so any number of
// goroutines may query it concurrently without synchronisation.
type Snapshot struct {
	build   BuildInfo
	mappers []string

	// groups are the snapshot's leaf groups (one per /20 that holds a
	// row), ascending by base: each its /24s and exact addresses, and as
	// its Pages the run pages[g*len(mappers):][:len(mappers)].
	// pages[g*len(mappers)+m] is mapper m's page of group g: RecordSize
	// bytes per row (see record.go), the group's prefix rows in prefix
	// order, then its exact rows in address order. A snapshot derived
	// from a predecessor holds the predecessor's keys and pages for
	// every group the derivation did not put (see Derive); nothing is
	// written once a snapshot is sealed, so both are shared, never
	// copied on write.
	groups []Group
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
	// from the groups; it is not content.
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
func (s *Snapshot) NumPrefixes() int {
	n := 0
	for _, g := range s.groups {
		n += len(g.Prefixes)
	}
	return n
}

// NumExactIPs reports the number of exact per-address answers.
func (s *Snapshot) NumExactIPs() int {
	n := 0
	for _, g := range s.groups {
		n += len(g.IPs)
	}
	return n
}

// NumFootprints reports the number of footprinted ASes (the union
// across mappers).
func (s *Snapshot) NumFootprints() int { return len(s.asns) }

// Prefixes returns the allocated /24 base addresses in ascending
// order, in a new slice (load generators build address mixes from it).
func (s *Snapshot) Prefixes() []uint32 {
	out := make([]uint32, 0, s.NumPrefixes())
	for _, g := range s.groups {
		out = append(out, g.Prefixes...)
	}
	return out
}

// ExactIPs returns the exactly-answered addresses in ascending order,
// in a new slice.
func (s *Snapshot) ExactIPs() []uint32 {
	out := make([]uint32, 0, s.NumExactIPs())
	for _, g := range s.groups {
		out = append(out, g.IPs...)
	}
	return out
}

// Digest is a two-level SHA-256 over the snapshot's complete content
// (mapper names, every leaf group's keys, every precomputed answer and
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

// groups splits an index (both slices ascending) into its leaf groups,
// ascending: one per /20 that holds a row, each holding views of the
// two slices and no pages.
func groups(prefixes, ips []uint32) []Group {
	var gs []Group
	for len(prefixes) > 0 || len(ips) > 0 {
		var base uint32
		switch {
		case len(prefixes) == 0:
			base = leafBase(ips[0])
		case len(ips) == 0:
			base = leafBase(prefixes[0])
		default:
			base = leafBase(min(prefixes[0], ips[0]))
		}
		np, ni := 0, 0
		for np < len(prefixes) && leafBase(prefixes[np]) == base {
			np++
		}
		for ni < len(ips) && leafBase(ips[ni]) == base {
			ni++
		}
		gs = append(gs, Group{Base: base, Prefixes: prefixes[:np:np], IPs: ips[:ni:ni]})
		prefixes, ips = prefixes[np:], ips[ni:]
	}
	return gs
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
			s.dir = buildDirectory(s.groups)
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
		g := &s.groups[i]
		w.h.Reset()
		w.u32(uint32(len(g.Prefixes)))
		w.u32s(g.Prefixes)
		w.u32(uint32(len(g.IPs)))
		w.u32s(g.IPs)
		for m, page := range g.Pages {
			for r := range len(page) / RecordSize {
				rec, exact := page[r*RecordSize:][:RecordSize], r >= len(g.Prefixes)
				if err := checkRecord(rec); err != nil {
					return fmt.Errorf("geoserve: mapper %d group %s row %d: %v", m, FormatIPv4(g.Base), r, err)
				}
				if rec[recOffFlags]&recFlagExact != 0 != exact {
					return fmt.Errorf("geoserve: mapper %d group %s row %d of %d prefix rows has exact=%v",
						m, FormatIPv4(g.Base), r, len(g.Prefixes), !exact)
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
	w.u32(uint32(s.NumPrefixes()))
	w.u32(uint32(s.NumExactIPs()))
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
