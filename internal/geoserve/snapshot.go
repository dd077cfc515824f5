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

// Snapshot is the immutable compiled serving index. All content is
// flat sorted slices, located through a directory derived from them;
// nothing is mutated after Compile, so any number of goroutines may
// query it concurrently without synchronisation.
type Snapshot struct {
	build   BuildInfo
	mappers []string

	// prefixes holds the base address of every allocated /24 in
	// ascending order; ips every known interface address in ascending
	// order.
	prefixes []uint32
	ips      []uint32

	// records[m] is mapper m's answers, RecordSize bytes per row (see
	// record.go): row i < len(prefixes) answers a generic (non-
	// interface) address inside prefixes[i], row len(prefixes)+i is
	// ips[i]'s exact answer.
	records [][]byte

	// asns holds the union of footprinted AS numbers in ascending
	// order; footprints[m][i] is asns[i]'s footprint under mapper m
	// (ASN == 0 marks absence under that mapper).
	asns       []int32
	footprints [][]analysis.ASFootprint

	// digest is the content digest and tag its first 8 bytes, the
	// epoch tag of the wire protocol; leaves are the digest's leaf
	// hashes, one per leaf group holding a row, ascending. seal sets
	// all three.
	digest string
	tag    uint64
	leaves []Leaf

	// dir locates an address's row (see directory). seal derives it
	// from prefixes and ips; it is not content.
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

// LeafBase returns the first address of the leaf group holding addr.
func LeafBase(addr uint32) uint32 { return addr &^ (1<<leafBits - 1) }

// Leaf is one leaf group's hash inside the content digest.
type Leaf struct {
	// Base is the group's first address (LeafBase of each of its rows).
	Base uint32
	// Sum is the SHA-256 over the group's rows (see seal).
	Sum [32]byte
}

// Leaves returns the digest's leaf hashes, ascending by Base: one per
// leaf group that holds a row. Equal Sums at one Base mean the group's
// /24 intervals are identical in both snapshots, which is what lets
// snapfile.Diff skip them. The slice is shared and read-only.
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
	rec := s.record(mapper, s.lookupRow(ip))
	if rec == nil {
		return Answer{IP: ip}, methodNone
	}
	return recordAnswer(ip, rec), method(rec[recOffMethod])
}

// lookupRow locates ip's answer row in every mapper's slab: its exact
// row when ip is a known interface address, else its /24's prefix row,
// else -1 (a miss). Every serving path finds its row here.
func (s *Snapshot) lookupRow(ip uint32) int { return s.dir.row(ip) }

// record returns the stored record of (mapper, row), or nil for a miss
// (row -1) or an out-of-range mapper.
func (s *Snapshot) record(mapper, row int) []byte {
	if row < 0 || mapper < 0 || mapper >= len(s.records) {
		return nil
	}
	return s.records[mapper][row*RecordSize:][:RecordSize]
}

// rowKey is a row's index key: its /24 base or its exact address.
func (s *Snapshot) rowKey(row int) uint32 {
	if row < len(s.prefixes) {
		return s.prefixes[row]
	}
	return s.ips[row-len(s.prefixes)]
}

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
// reserved bytes are therefore not in it; FromTables pins those.
//
// Like u32s it fills the buffer a chunk at a time, and it moves each
// record's fields as whole words: this loop is most of a seal's cost
// besides SHA-256 itself.
func (w *hashWriter) records(slab []byte) {
	le := binary.LittleEndian
	for len(slab) >= RecordSize {
		w.grow(30)
		n := min((cap(w.buf)-len(w.buf))/30, len(slab)/RecordSize)
		off := len(w.buf)
		w.buf = w.buf[:off+n*30]
		for i := range n {
			rec, d := slab[i*RecordSize:][:RecordSize], w.buf[off+i*30:][:30]
			le.PutUint64(d[0:], le.Uint64(rec[recOffLat:]))
			le.PutUint64(d[8:], le.Uint64(rec[recOffLon:]))
			le.PutUint64(d[16:], le.Uint64(rec[recOffRadius:]))
			le.PutUint32(d[24:], le.Uint32(rec[recOffASN:]))
			d[28], d[29] = rec[recOffMethod], rec[recOffFlags]&recFlagFound
		}
		slab = slab[n*RecordSize:]
	}
}

// group is one leaf group's rows: prefix rows [pLo, pHi) and the exact
// addresses ips[iLo:iHi], whose slab rows follow all prefix rows.
type group struct {
	base               uint32
	pLo, pHi, iLo, iHi int
}

// groups splits an index (both slices ascending) into its leaf groups,
// ascending: one per /20 that holds a row.
func groups(prefixes, ips []uint32) []group {
	var gs []group
	for pi, ii := 0, 0; pi < len(prefixes) || ii < len(ips); {
		var base uint32
		switch {
		case pi >= len(prefixes):
			base = LeafBase(ips[ii])
		case ii >= len(ips):
			base = LeafBase(prefixes[pi])
		default:
			base = LeafBase(min(prefixes[pi], ips[ii]))
		}
		g := group{base: base, pLo: pi, iLo: ii}
		for pi < len(prefixes) && LeafBase(prefixes[pi]) == base {
			pi++
		}
		for ii < len(ips) && LeafBase(ips[ii]) == base {
			ii++
		}
		g.pHi, g.iHi = pi, ii
		gs = append(gs, g)
	}
	return gs
}

// prefixRecs and exactRecs return a group's records in mapper m's slab.
func (s *Snapshot) prefixRecs(m int, g group) []byte {
	return s.records[m][g.pLo*RecordSize : g.pHi*RecordSize]
}

func (s *Snapshot) exactRecs(m int, g group) []byte {
	np := len(s.prefixes)
	return s.records[m][(np+g.iLo)*RecordSize : (np+g.iHi)*RecordSize]
}

// sameKeys reports whether group g of s and group pg of prev hold the
// same /24s and the same exact addresses.
func sameKeys(s *Snapshot, g group, prev *Snapshot, pg group) bool {
	return slices.Equal(s.prefixes[g.pLo:g.pHi], prev.prefixes[pg.pLo:pg.pHi]) &&
		slices.Equal(s.ips[g.iLo:g.iHi], prev.ips[pg.iLo:pg.iHi])
}

// seal computes the content digest and the epoch tag, and builds the
// directory unless the snapshot already shares one (CompileDelta over
// an unchanged index) while the leaves hash. Every constructor of a
// Snapshot ends here, so none serves without a directory and no lookup
// ever builds one.
//
// The digest is two-level. Each leaf group (one /20, see LeafBase)
// holding a row gets a leaf: a SHA-256 over its /24s and exact
// addresses (each a u32 count, then the values) and, per mapper, the
// records of its prefix rows then of its exact rows. The root is a
// SHA-256 over the mapper names, the row counts, every leaf's base and
// hash, the ASNs and the footprints; BuildInfo is deliberately
// excluded (see Digest).
//
// prev, when non-nil, is the snapshot s was derived from, and touched
// lists (in any order) the /24 bases whose rows may differ from prev's.
// A group in which no touched /24 lies takes prev's leaf instead of
// being hashed, so an epoch hashes what it changed. That rests on the
// deriver's contract — every row outside a touched /24 is prev's row
// at the same key, copied verbatim — which CompileDelta and
// snapfile.Apply meet by construction. seal checks the keys half of it
// cheaply: such a group's keys must equal those of prev's group at the
// same base, so a touched set that misses a changed key is an error,
// never a wrong leaf. prev's leaves were computed by its own seal,
// never read from outside bytes. seal returns the groups it hashed.
func (s *Snapshot) seal(prev *Snapshot, touched []uint32) ([]group, error) {
	var (
		hashed []group
		err    error
	)
	parallel.Do(func() {
		if s.dir == nil {
			s.dir = buildDirectory(s.prefixes, s.ips)
		}
	}, func() { hashed, err = s.hash(prev, touched) })
	return hashed, err
}

// hash sets the leaves, the digest and the tag for seal.
func (s *Snapshot) hash(prev *Snapshot, touched []uint32) ([]group, error) {
	gs := groups(s.prefixes, s.ips)
	var pgs []group // prev's groups, one per leaf of prev
	var bases []uint32
	if prev != nil {
		if !slices.Equal(s.mappers, prev.mappers) {
			return nil, fmt.Errorf("geoserve: mappers %q, previous snapshot has %q", s.mappers, prev.mappers)
		}
		pgs = groups(prev.prefixes, prev.ips)
		for _, t := range touched {
			bases = append(bases, LeafBase(t))
		}
		slices.Sort(bases)
	}
	w := &hashWriter{h: sha256.New(), buf: make([]byte, 0, 1<<16)}
	s.leaves = make([]Leaf, len(gs))
	var hashed []group
	k := 0
	for i, g := range gs {
		leaf := &s.leaves[i]
		leaf.Base = g.base
		for k < len(pgs) && pgs[k].base < g.base {
			k++
		}
		if _, hit := slices.BinarySearch(bases, g.base); prev != nil && !hit {
			if k == len(pgs) || pgs[k].base != g.base || !sameKeys(s, g, prev, pgs[k]) {
				return nil, fmt.Errorf("geoserve: leaf group %s holds no touched /24 but its keys differ from the previous snapshot's", FormatIPv4(g.base))
			}
			leaf.Sum = prev.leaves[k].Sum
			continue
		}
		hashed = append(hashed, g)
		w.h.Reset()
		w.u32(uint32(g.pHi - g.pLo))
		w.u32s(s.prefixes[g.pLo:g.pHi])
		w.u32(uint32(g.iHi - g.iLo))
		w.u32s(s.ips[g.iLo:g.iHi])
		for m := range s.records {
			w.records(s.prefixRecs(m, g))
			w.records(s.exactRecs(m, g))
		}
		w.flush()
		w.h.Sum(leaf.Sum[:0])
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
	return hashed, nil
}
