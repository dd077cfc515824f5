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
	// analysis.Footprints over the mapper's processed dataset.
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
	// and deleted intervals). Cluster.SwapDelta uses it to count the
	// shards a delta really moved.
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

// compile is the one compile path: prev nil compiles src from scratch,
// and otherwise rows are classified against prev (see CompileDelta).
// Each mapper's slab is prev's carried runs (every mapper's carried at
// once), then the radius patches, then one parallel pass that
// recomputes the remaining rows.
func compile(prev *Snapshot, src Source, dirty []uint32) (*Snapshot, DeltaStats, error) {
	var st DeltaStats
	s, err := skeleton(src)
	if err != nil {
		return nil, st, err
	}
	rows := len(s.prefixes) + len(s.ips)
	ops := make([]uint8, rows)
	var prevRow []int32
	touched := map[uint32]struct{}{}
	if prev != nil {
		if !slices.Equal(s.mappers, prev.mappers) {
			return nil, st, fmt.Errorf("geoserve: delta compile: mappers %q, previous snapshot has %q", s.mappers, prev.mappers)
		}
		// The common churn step moves answers, not the index: it then
		// shares prev's index and the directory derived from it.
		if sameIndex(prev, s) {
			s.prefixes, s.ips, s.dir = prev.prefixes, prev.ips, prev.dir
		}
		prevRow = classify(prev, s, dirty, ops, &st, touched)
	}

	// The address each recomputed row is answered for: an exact row's
	// own address, and per /24 a representative "generic host" address
	// — the highest address in the block that is not a known interface,
	// so the prefix-level answer reflects what the mapper says about an
	// arbitrary, PTR-less host there (whois by range, EdgeScape feed by
	// /24). Copied and patched rows keep prev's, which cannot have moved.
	var recomp []int32
	for row, op := range ops {
		if op == opRecompute {
			recomp = append(recomp, int32(row))
		}
	}
	addrs := make([]uint32, len(recomp))
	parallel.ForEach(len(recomp), func(k int) {
		row := int(recomp[k])
		if addrs[k] = s.rowKey(row); row < len(s.prefixes) {
			addrs[k] = GenericHost(s.ips, addrs[k])
		}
	})

	var firstErr compileErr
	slabs := parallel.Map(len(src.Mappers), func(m int) []byte { return carry(prev, m, ops, prevRow) })
	for m, nm := range src.Mappers {
		slab := slabs[m]
		for row, op := range ops {
			if op == opPatch {
				// The one field a footprint change moves; every other
				// byte of the record stands.
				fp, _ := s.Footprint(m, int(recordASN(slab[row*RecordSize:])))
				binary.LittleEndian.PutUint64(slab[row*RecordSize+recOffRadius:], math.Float64bits(fp.RadiusMi))
			}
		}
		parallel.ForEach(len(recomp), func(k int) {
			row := int(recomp[k])
			firstErr.set(compileRecord(slab[row*RecordSize:], s, m, nm.Mapper, src.Table, addrs[k], row >= len(s.prefixes)))
		})
		s.records = append(s.records, slab)
	}
	if firstErr.err != nil {
		return nil, st, firstErr.err
	}

	// Stats + the touched set, against prev: a recompiled or patched row
	// only counts as touched if its answers actually differ from prev's.
	if prev != nil {
		st.Rows = rows
		for row, op := range ops {
			switch op {
			case opCopy:
				st.Copied++
				continue
			case opPatch:
				st.Patched++
			case opRecompute:
				st.Recompiled++
			}
			for m := range s.records {
				if prevRow[row] < 0 || !bytes.Equal(s.record(m, row), prev.record(m, int(prevRow[row]))) {
					touched[s.rowKey(row)&^0xff] = struct{}{}
					break
				}
			}
		}
		st.Touched = slices.Sorted(maps.Keys(touched))
	}

	// Identity is content identity: the digest covers every table. A
	// row outside Touched was copied from prev or recomputed to prev's
	// bytes (the compare above), so the leaf of every group Touched
	// misses is prev's, and seal reuses it.
	if _, err := s.seal(prev, st.Touched); err != nil {
		return nil, st, err
	}
	return s, st, nil
}

// classify gives each row of s its op against prev and returns, per
// row, the prev row it came from (-1 for a key new to the index, whose
// op stays opRecompute). A kept row recomputes under a dirty /24, is
// patched when its AS's footprint changed under any mapper, and is
// copied otherwise. Deleted prev keys land in touched: their
// interval's answers no longer exist.
func classify(prev, s *Snapshot, dirty []uint32, ops []uint8, st *DeltaStats, touched map[uint32]struct{}) []int32 {
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

	// merge walks one of prev's sorted key tables against its successor
	// (the key tables sit at prevOff and newOff in their slabs).
	prevRow := make([]int32, len(ops))
	merge := func(prevKeys, newKeys []uint32, prevOff, newOff int) {
		j := 0
		d := 0 // the keys ascend, so their /24s walk dirtyBases once
		for i, k := range newKeys {
			for ; j < len(prevKeys) && prevKeys[j] < k; j++ {
				st.Deleted++
				touched[prevKeys[j]&^0xff] = struct{}{}
			}
			row := newOff + i
			if j < len(prevKeys) && prevKeys[j] == k {
				prevRow[row] = int32(prevOff + j)
				for d < len(dirtyBases) && dirtyBases[d] < k&^0xff {
					d++
				}
				if d == len(dirtyBases) || dirtyBases[d] != k&^0xff {
					ops[row] = opCopy
					if changedASN[recordASN(prev.record(0, prevOff+j))] {
						ops[row] = opPatch
					}
				}
				j++
			} else {
				prevRow[row] = -1
			}
		}
		for ; j < len(prevKeys); j++ {
			st.Deleted++
			touched[prevKeys[j]&^0xff] = struct{}{}
		}
	}
	merge(prev.prefixes, s.prefixes, 0, 0)
	merge(prev.ips, s.ips, len(prev.prefixes), len(s.prefixes))
	return prevRow
}

// carry lays out mapper m's new slab before any row is recomputed.
// With no previous snapshot it is a zeroed slab. Otherwise it is runs
// of rows carried over from consecutive prev rows, with a placeholder
// record for each row to recompute; bytes.Join writes each row once
// into a slab no zeroing pass touched first.
func carry(prev *Snapshot, m int, ops []uint8, prevRow []int32) []byte {
	if prev == nil {
		return make([]byte, len(ops)*RecordSize)
	}
	var placeholder [RecordSize]byte
	var runs [][]byte
	for row := 0; row < len(ops); {
		if ops[row] == opRecompute {
			runs = append(runs, placeholder[:])
			row++
			continue
		}
		end := row + 1
		for end < len(ops) && ops[end] != opRecompute && prevRow[end] == prevRow[end-1]+1 {
			end++
		}
		runs = append(runs, prev.records[m][int(prevRow[row])*RecordSize:int(prevRow[end-1]+1)*RecordSize])
		row = end
	}
	return bytes.Join(runs, nil)
}

// skeleton builds everything of src's snapshot that no mapper answer
// goes into: the mapper names, the two indexes (src's own slices) and
// the footprint tables, the union of every mapper's ASNs with a zero
// row where a mapper has none. check then holds them to the rules
// FromTables holds outside bytes to; what only a Source can get wrong
// is checked here: an empty address set, a nil table, a nil mapper.
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
		for _, fp := range nm.Footprints {
			s.asns = append(s.asns, int32(fp.ASN))
		}
	}
	slices.Sort(s.asns)
	s.asns = slices.Compact(s.asns)
	s.footprints = make([][]analysis.ASFootprint, len(src.Mappers))
	for m, nm := range src.Mappers {
		s.footprints[m] = make([]analysis.ASFootprint, len(s.asns))
		for _, fp := range nm.Footprints {
			i, _ := slices.BinarySearch(s.asns, int32(fp.ASN))
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
