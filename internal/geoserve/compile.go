package geoserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"geonet/internal/analysis"
	"geonet/internal/bgp"
	"geonet/internal/geoloc"
	"geonet/internal/parallel"
)

// Source bundles everything Compile reads from a finished pipeline.
// core.Pipeline.ServeSource constructs it, and each churn step
// materialises one. A compiled snapshot keeps Prefixes and IPs as its
// indexes, so neither may change once compiled.
type Source struct {
	// Prefixes is the allocated address space: the base address of
	// every allocated /24, strictly ascending.
	Prefixes []uint32
	// IPs is every public interface address, strictly ascending. Inside
	// an allocated /24 it must be every address a host is known at:
	// each gets an exact answer, and the /24's generic host is the
	// highest address not among them.
	IPs []uint32
	// Table is the BGP epoch answers are AS-attributed against.
	Table *bgp.Table
	// Mappers are compiled in order; Lookup's mapper index and the
	// HTTP API's mapper names follow it.
	Mappers []NamedMapper
	// Build identifies the pipeline for /healthz and /statusz.
	Build BuildInfo
}

// NamedMapper pairs a mapping tool with its footprint source.
type NamedMapper struct {
	Mapper geoloc.MethodMapper
	// Footprints are the per-AS footprints answers under this mapper
	// carry their confidence radius from — typically
	// analysis.Footprints over the mapper's processed dataset — strictly
	// ascending by ASN, as analysis.Footprints returns them. Compile
	// refuses a list out of that order; it does not sort one.
	Footprints []analysis.ASFootprint
}

// DeltaStats reports what an incremental compile did with each answer
// row (a row is one /24 interval or one exact interface address; the
// counts are per row, across all mappers).
type DeltaStats struct {
	// Rows is the total number of answer rows in the new snapshot.
	Rows int `json:"rows"`
	// Recompiled rows were answered fresh through the mappers: rows
	// under a dirty /24 plus rows new to the index.
	Recompiled int `json:"recompiled"`
	// Patched rows had only their confidence radius re-derived from a
	// changed AS footprint — no mapper or BGP work.
	Patched int `json:"patched"`
	// Copied rows were carried over from the previous snapshot
	// verbatim.
	Copied int `json:"copied"`
	// Deleted counts previous rows that left the index.
	Deleted int `json:"deleted"`
	// Touched lists, ascending, the /24 base addresses whose answers
	// actually differ from the previous snapshot (including inserted
	// and deleted intervals). seal shares the previous snapshot's pages
	// and leaf for every leaf group holding none of them, and
	// Cluster.SwapDelta uses it to count the shards a delta really
	// moved.
	Touched []uint32 `json:"-"`
}

// Compile flattens the source into an immutable serving snapshot: one
// sorted /24 interval index over the allocated space, exact answers
// for every known interface address, prefix-level answers for generic
// hosts, and per-AS footprints. It is a delta compile with no previous
// snapshot, so every row is recomputed. Compilation parallelizes over
// per-row slots (up to GOMAXPROCS), so the result (and its Digest) is
// identical at any parallelism.
func Compile(src Source) (*Snapshot, error) {
	s, _, err := compile(nil, src, nil)
	return s, err
}

// CompileDelta incrementally recompiles prev into a new snapshot for a
// churned source, recomputing only the rows whose answers could have
// changed and copying everything else from prev.
//
// The contract: src must differ from the source prev was compiled from
// only in (a) routes and allocations covering the /24s listed in
// dirty, (b) interface addresses added or removed — detected from the
// sources themselves, their /24s join the dirty set automatically (an
// interface appearing or vanishing can shift the block's
// representative "generic host" address) — and (c) AS footprints,
// detected by comparing prev's footprint tables against src's (a
// changed footprint re-derives the radius of every row attributed to
// that AS, with no mapper work). The mappers themselves must be the
// same objects answering identically outside dirty /24s; under that
// contract the result is byte-identical — same Digest — to a
// from-scratch Compile of src (pinned per churn step by the golden
// churn corpus).
func CompileDelta(prev *Snapshot, src Source, dirty []uint32) (*Snapshot, DeltaStats, error) {
	if prev == nil {
		return nil, DeltaStats{}, fmt.Errorf("geoserve: delta compile: nil previous snapshot (use Compile)")
	}
	return compile(prev, src, dirty)
}

// Row ops: what compile does with an answer row. The zero op
// recomputes, and with no previous snapshot it is every row's.
const (
	opRecompute uint8 = iota
	opCopy
	opPatch
)

// rowAt is row r of group g's pages.
type rowAt struct{ g, r int32 }

// compile is the one compile path: prev nil compiles src from scratch,
// and otherwise rows are classified against prev (see CompileDelta).
// Only the groups holding a row that is not copied, or a key that
// left, get new pages: prev's rows copied, then the radius patches,
// then one parallel pass that recomputes the remaining rows. seal then
// shares prev's pages for every group the compile did not touch.
func compile(prev *Snapshot, src Source, dirty []uint32) (*Snapshot, DeltaStats, error) {
	var st DeltaStats
	s, err := skeleton(src)
	if err != nil {
		return nil, st, err
	}
	if prev != nil {
		if !slices.Equal(s.mappers, prev.mappers) {
			return nil, st, fmt.Errorf("geoserve: delta compile: mappers %q, previous snapshot has %q", s.mappers, prev.mappers)
		}
		// The common churn step moves answers, not the index: it then
		// shares prev's index, groups and directory.
		if sameIndex(prev, s) {
			s.prefixes, s.ips, s.groups, s.dir = prev.prefixes, prev.ips, prev.groups, prev.dir
		}
	}
	if s.groups == nil {
		s.groups = groups(s.prefixes, s.ips)
	}
	rows := len(s.prefixes) + len(s.ips)
	ops := make([]uint8, rows)
	build := s.holding(nil, nil)
	var (
		from  []int32
		match []int
	)
	touched := map[uint32]struct{}{}
	if prev != nil {
		from, match, build = classify(prev, s, dirty, ops, &st, touched)
	}
	s.carve(build)

	// Each new page takes prev's rows that stand, with the radius
	// re-derived on each whose AS footprint changed (the one field a
	// footprint change moves), and lists the rows to recompute. Every
	// page written here is new; none is prev's.
	var recomp []rowAt
	for i, g := range s.groups {
		at := g.pLo + g.iLo
		for r := 0; build[i] && r < g.rows(); r++ {
			op := ops[at+r]
			if op == opRecompute {
				recomp = append(recomp, rowAt{int32(i), int32(r)})
				continue
			}
			for m := range s.mappers {
				rec := s.page(m, i)[r*RecordSize:][:RecordSize]
				copy(rec, prev.page(m, match[i])[int(from[at+r])*RecordSize:])
				if op == opPatch {
					fp, _ := s.Footprint(m, int(recordASN(rec)))
					binary.LittleEndian.PutUint64(rec[recOffRadius:], math.Float64bits(fp.RadiusMi))
				}
			}
		}
	}
	// The address each recomputed row is answered for: an exact row's
	// own address, and per /24 a representative "generic host" address
	// — the highest address in the block that is not a known interface,
	// so the prefix-level answer reflects what the mapper says about an
	// arbitrary, PTR-less host there (whois by range, EdgeScape feed by
	// /24). Copied and patched rows keep prev's, which cannot have moved.
	addrs := make([]uint32, len(recomp))
	parallel.ForEach(len(recomp), func(k int) {
		g, r := s.groups[recomp[k].g], int(recomp[k].r)
		if addrs[k] = s.key(g, r); r < g.prefixRows() {
			addrs[k] = GenericHost(s.ips, addrs[k])
		}
	})
	var firstErr compileErr
	for m, nm := range src.Mappers {
		parallel.ForEach(len(recomp), func(k int) {
			i, r := int(recomp[k].g), int(recomp[k].r)
			firstErr.set(compileRecord(s.page(m, i)[r*RecordSize:], s, m, nm.Mapper, src.Table, addrs[k], r >= s.groups[i].prefixRows()))
		})
	}
	if firstErr.err != nil {
		return nil, st, firstErr.err
	}

	// Stats + the touched set, against prev: a recompiled or patched row
	// only counts as touched if its answers actually differ from prev's.
	// Every row outside a new page was copied.
	if prev != nil {
		st.Rows = rows
		for i, g := range s.groups {
			if !build[i] {
				continue
			}
			at := g.pLo + g.iLo
			for r := range g.rows() {
				switch ops[at+r] {
				case opCopy:
					continue
				case opPatch:
					st.Patched++
				case opRecompute:
					st.Recompiled++
				}
				for m := range s.mappers {
					f := int(from[at+r])
					if f < 0 || !bytes.Equal(s.page(m, i)[r*RecordSize:][:RecordSize], prev.page(m, match[i])[f*RecordSize:][:RecordSize]) {
						touched[s.key(g, r)&^0xff] = struct{}{}
						break
					}
				}
			}
		}
		st.Copied = rows - st.Patched - st.Recompiled
		st.Touched = slices.Sorted(maps.Keys(touched))
	}

	// Identity is content identity: the digest covers every table. A
	// row outside Touched was copied from prev or recomputed to prev's
	// bytes (the compare above), so every group Touched misses is
	// prev's, and seal shares its pages and leaf.
	if _, err := s.seal(prev, st.Touched); err != nil {
		return nil, st, err
	}
	return s, st, nil
}

// classify gives each row of s its op against prev, in ops, and
// returns per row the row of prev's group at the same base that holds
// its key (-1 for a key new to the index, whose op stays opRecompute),
// per group of s prev's group at its base (-1 for none), and the groups
// that need new pages: those holding a row that is not copied or a key
// that left. A kept row recomputes under a dirty /24, is patched when
// its AS's footprint changed under any mapper, and is copied otherwise.
// Deleted prev keys land in touched: their interval's answers no
// longer exist. ops and from are in page order: group after group,
// each group's rows as its pages hold them.
func classify(prev, s *Snapshot, dirty []uint32, ops []uint8, st *DeltaStats, touched map[uint32]struct{}) (from []int32, match []int, build []bool) {
	// The ASNs whose footprint changed under any mapper since prev:
	// merge prev.asns against s.asns; an ASN present on only one side,
	// or whose footprint differs under any mapper, changed.
	changedASN := map[int32]bool{}
	for i, j := 0, 0; i < len(prev.asns) || j < len(s.asns); {
		switch {
		case j >= len(s.asns) || (i < len(prev.asns) && prev.asns[i] < s.asns[j]):
			changedASN[prev.asns[i]] = true
			i++
		case i >= len(prev.asns) || s.asns[j] < prev.asns[i]:
			changedASN[s.asns[j]] = true
			j++
		default:
			for m := range s.footprints {
				if prev.footprints[m][i] != s.footprints[m][j] {
					changedASN[prev.asns[i]] = true
					break
				}
			}
			i, j = i+1, j+1
		}
	}

	// The dirty set, as ascending /24 bases. Interface churn joins it
	// here: an address appearing in or leaving the exact index can
	// shift its block's representative generic-host address, so the
	// whole /24 recompiles.
	dirtyBases := make([]uint32, 0, len(dirty))
	for _, d := range dirty {
		dirtyBases = append(dirtyBases, d&^0xff)
	}
	for i, j := 0, 0; i < len(prev.ips) || j < len(s.ips); {
		switch {
		case j >= len(s.ips) || (i < len(prev.ips) && prev.ips[i] < s.ips[j]):
			dirtyBases = append(dirtyBases, prev.ips[i]&^0xff)
			i++
		case i >= len(prev.ips) || s.ips[j] < prev.ips[i]:
			dirtyBases = append(dirtyBases, s.ips[j]&^0xff)
			j++
		default:
			i, j = i+1, j+1
		}
	}
	slices.Sort(dirtyBases)
	dirtyBases = slices.Compact(dirtyBases)

	from = make([]int32, len(ops))
	match = make([]int, len(s.groups))
	build = make([]bool, len(s.groups))
	gone := func(keys []uint32) {
		st.Deleted += len(keys)
		for _, k := range keys {
			touched[k&^0xff] = struct{}{}
		}
	}
	goneGroup := func(pg group) {
		gone(prev.prefixes[pg.pLo:pg.pHi])
		gone(prev.ips[pg.iLo:pg.iHi])
	}
	k, d := 0, 0 // the groups ascend, so they walk prev's groups and dirtyBases once
	for i, g := range s.groups {
		for ; k < len(prev.groups) && prev.groups[k].base < g.base; k++ {
			goneGroup(prev.groups[k])
		}
		at := g.pLo + g.iLo
		if k == len(prev.groups) || prev.groups[k].base != g.base {
			match[i], build[i] = -1, true
			for r := range g.rows() {
				from[at+r] = -1
			}
			continue
		}
		pg := prev.groups[k]
		match[i] = k
		k++
		for d < len(dirtyBases) && dirtyBases[d] < g.base {
			d++
		}
		e := d
		for e < len(dirtyBases) && leafBase(dirtyBases[e]) == g.base {
			e++
		}
		// merge walks one of the group's key tables against prev's (they
		// start at rows off and prevOff of their pages).
		merge := func(keys, prevKeys []uint32, off, prevOff int) {
			j := 0
			for n, key := range keys {
				j0 := j
				for j < len(prevKeys) && prevKeys[j] < key {
					j++
				}
				if j > j0 {
					gone(prevKeys[j0:j])
					build[i] = true
				}
				row := at + off + n
				if j == len(prevKeys) || prevKeys[j] != key {
					from[row], build[i] = -1, true
					continue
				}
				from[row] = int32(prevOff + j)
				switch {
				case slices.Contains(dirtyBases[d:e], key&^0xff):
					build[i] = true
				case changedASN[recordASN(prev.page(0, k-1)[(prevOff+j)*RecordSize:])]:
					ops[row], build[i] = opPatch, true
				default:
					ops[row] = opCopy
				}
				j++
			}
			if j < len(prevKeys) {
				gone(prevKeys[j:])
				build[i] = true
			}
		}
		merge(s.prefixes[g.pLo:g.pHi], prev.prefixes[pg.pLo:pg.pHi], 0, 0)
		merge(s.ips[g.iLo:g.iHi], prev.ips[pg.iLo:pg.iHi], g.prefixRows(), pg.prefixRows())
	}
	for ; k < len(prev.groups); k++ {
		goneGroup(prev.groups[k])
	}
	return from, match, build
}

// skeleton builds everything of src's snapshot that no mapper answer
// goes into: the mapper names, the two indexes (src's own slices) and
// the footprint tables, the union of every mapper's ASNs with a zero
// row where a mapper has none. check then holds them to the rules
// Derive holds outside bytes to; what only a Source can get wrong
// is checked here: an empty address set, a nil table, a nil mapper, a
// mapper's footprints out of ascending ASN order.
func skeleton(src Source) (*Snapshot, error) {
	switch {
	case len(src.Prefixes) == 0 || len(src.IPs) == 0:
		return nil, fmt.Errorf("geoserve: empty address set (%d prefixes, %d IPs)", len(src.Prefixes), len(src.IPs))
	case src.Table == nil:
		return nil, fmt.Errorf("geoserve: nil BGP table")
	}
	s := &Snapshot{build: src.Build, prefixes: src.Prefixes, ips: src.IPs}
	for _, nm := range src.Mappers {
		if nm.Mapper == nil {
			return nil, fmt.Errorf("geoserve: nil mapper")
		}
		s.mappers = append(s.mappers, nm.Mapper.Name())
		for i, fp := range nm.Footprints {
			if fp.ASN <= 0 || fp.ASN > math.MaxInt32 || i > 0 && fp.ASN <= nm.Footprints[i-1].ASN {
				return nil, fmt.Errorf("geoserve: mapper %q footprint %d (AS%d) is not a positive int32 ASN above its predecessor's", nm.Mapper.Name(), i, fp.ASN)
			}
		}
	}
	// Each mapper's rows ascend, so one merge of all of them yields the
	// union, and a walk per mapper then places its rows.
	cur := make([]int, len(src.Mappers))
	for {
		least := math.MaxInt
		for m, nm := range src.Mappers {
			if c := cur[m]; c < len(nm.Footprints) {
				least = min(least, nm.Footprints[c].ASN)
			}
		}
		if least == math.MaxInt {
			break
		}
		s.asns = append(s.asns, int32(least))
		for m, nm := range src.Mappers {
			if c := cur[m]; c < len(nm.Footprints) && nm.Footprints[c].ASN == least {
				cur[m]++
			}
		}
	}
	s.footprints = make([][]analysis.ASFootprint, len(src.Mappers))
	for m, nm := range src.Mappers {
		s.footprints[m] = make([]analysis.ASFootprint, len(s.asns))
		i := 0
		for _, fp := range nm.Footprints {
			for s.asns[i] != int32(fp.ASN) {
				i++
			}
			s.footprints[m][i] = fp
		}
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// GenericHost is the address Compile answers the /24 at base's
// prefix-level rows for, its representative generic host: the highest
// address in the block not in ips (ascending), or base itself when
// every host address .1–.255 is. It walks down from .255 through the
// run of taken addresses that ends the block.
func GenericHost(ips []uint32, base uint32) uint32 {
	host := base + 255
	i, taken := slices.BinarySearch(ips, host)
	for taken && host > base {
		host--
		i--
		taken = i >= 0 && ips[i] == host
	}
	return host
}

// compileErr keeps the first error of a parallel compile pass.
type compileErr struct {
	mu  sync.Mutex
	err error
}

func (e *compileErr) set(err error) {
	if err != nil {
		e.mu.Lock()
		if e.err == nil {
			e.err = err
		}
		e.mu.Unlock()
	}
}

// compileRecord precomputes one answer of mapper m into dst: mapper
// resolution, BGP origin AS and the confidence radius of that AS's
// footprint in s.
func compileRecord(dst []byte, s *Snapshot, m int, mapper geoloc.MethodMapper, table *bgp.Table, ip uint32, exact bool) error {
	a := Answer{Exact: exact}
	if p, methodName, ok := mapper.LocateMethod(ip); ok {
		a.Loc, a.Method, a.Found = p, methodName, true
	}
	if asn, ok := table.OriginAS(ip); ok {
		fp, _ := s.Footprint(m, asn)
		a.ASN, a.RadiusMi = asn, fp.RadiusMi
	}
	if err := PutRecord(dst, a); err != nil {
		return fmt.Errorf("geoserve: mapper %q at %s: %w", mapper.Name(), FormatIPv4(ip), err)
	}
	return nil
}
