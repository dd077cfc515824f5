package geoserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"geonet/internal/parallel"
)

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

// row-classification ops for CompileDelta's merge passes.
const (
	opCopy uint8 = iota
	opPatch
	opRecompute
)

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
	var st DeltaStats
	if prev == nil {
		return nil, st, fmt.Errorf("geoserve: delta compile: nil previous snapshot (use Compile)")
	}
	s, byASN, err := skeleton(src)
	if err != nil {
		return nil, st, err
	}
	if !slices.Equal(s.mappers, prev.mappers) {
		return nil, st, fmt.Errorf("geoserve: delta compile: mappers %q, previous snapshot has %q", s.mappers, prev.mappers)
	}

	// The common churn step moves answers, not the index: it then
	// shares prev's index and the directory derived from it.
	if sameIndex(prev, s) {
		s.prefixes, s.ips, s.dir = prev.prefixes, prev.ips, prev.dir
	}

	// The ASNs whose footprint changed under any mapper since prev:
	// their rows need a radius patch.
	changedASN := map[int32]bool{}
	{
		// Merge prev.asns against s.asns; an ASN present on only one
		// side, or whose footprint differs under any mapper, changed.
		i, j := 0, 0
		for i < len(prev.asns) || j < len(s.asns) {
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
				i++
				j++
			}
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
	{
		i, j := 0, 0
		for i < len(prev.ips) || j < len(s.ips) {
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
	}
	slices.Sort(dirtyBases)
	dirtyBases = slices.Compact(dirtyBases)

	touched := map[uint32]struct{}{}

	// classify merges one of prev's sorted key tables against its
	// successor and gives each new row (rows are slab rows: the key
	// tables sit at prevOff and newOff in their slabs) an op and the
	// prev row it came from, -1 for a key new to the index. Deleted prev
	// keys land in touched: their interval's answers no longer exist.
	rows := len(s.prefixes) + len(s.ips)
	ops := make([]uint8, rows)
	prevRow := make([]int32, rows)
	classify := func(prevKeys, newKeys []uint32, prevOff, newOff int) {
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
				if d < len(dirtyBases) && dirtyBases[d] == k&^0xff {
					ops[row] = opRecompute
				} else if changedASN[recordASN(prev.record(0, prevOff+j))] {
					ops[row] = opPatch
				}
				j++
			} else {
				prevRow[row] = -1
				ops[row] = opRecompute
			}
		}
		for ; j < len(prevKeys); j++ {
			st.Deleted++
			touched[prevKeys[j]&^0xff] = struct{}{}
		}
	}
	classify(prev.prefixes, s.prefixes, 0, 0)
	classify(prev.ips, s.ips, len(prev.prefixes), len(s.prefixes))

	// The address each recompiled row is answered for: the exact
	// address, or the /24's representative generic host (selecting it
	// searches the exact addresses — skipped for copied rows, whose
	// representatives cannot have moved).
	var recomp []int
	for row, op := range ops {
		if op == opRecompute {
			recomp = append(recomp, row)
		}
	}
	rowKey := func(row int) uint32 {
		if row < len(s.prefixes) {
			return s.prefixes[row]
		}
		return s.ips[row-len(s.prefixes)]
	}
	addrs := make([]uint32, len(recomp))
	parallel.ForEach(len(recomp), func(k int) {
		addrs[k] = rowKey(recomp[k])
		if recomp[k] < len(s.prefixes) {
			addrs[k] = GenericHost(s.ips, addrs[k])
		}
	})

	// A slab is runs of rows carried over from consecutive prev rows,
	// with a placeholder record for each row to recompile; bytes.Join
	// writes each row once into a slab no zeroing pass touched first.
	var placeholder [RecordSize]byte
	var firstErr compileErr
	for m, nm := range src.Mappers {
		var runs [][]byte
		for row := 0; row < rows; {
			if ops[row] == opRecompute {
				runs = append(runs, placeholder[:])
				row++
				continue
			}
			end := row + 1
			for end < rows && ops[end] != opRecompute && prevRow[end] == prevRow[end-1]+1 {
				end++
			}
			runs = append(runs, prev.records[m][int(prevRow[row])*RecordSize:int(prevRow[end-1]+1)*RecordSize])
			row = end
		}
		slab := bytes.Join(runs, nil)
		for row, op := range ops {
			if op == opPatch {
				// The one field a footprint change moves; every other
				// byte of the record stands.
				rec := slab[row*RecordSize:][:RecordSize]
				radius := 0.0
				if fp, ok := byASN[m][int(recordASN(rec))]; ok {
					radius = fp.RadiusMi
				}
				binary.LittleEndian.PutUint64(rec[recOffRadius:], math.Float64bits(radius))
			}
		}
		parallel.ForEach(len(recomp), func(k int) {
			row := recomp[k]
			firstErr.set(compileRecord(slab[row*RecordSize:], nm.Mapper, src.Table, byASN[m], addrs[k], row >= len(s.prefixes)))
		})
		s.records = append(s.records, slab)
	}
	if firstErr.err != nil {
		return nil, st, firstErr.err
	}

	// Stats + the touched set: a recompiled or patched row only counts
	// as touched if its answers actually differ from prev's.
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
				touched[rowKey(row)&^0xff] = struct{}{}
				break
			}
		}
	}
	st.Touched = make([]uint32, 0, len(touched))
	for b := range touched {
		st.Touched = append(st.Touched, b)
	}
	slices.Sort(st.Touched)

	// Identity is content identity: the digest covers every table, and
	// only the leaves of groups proven byte-equal to prev's are reused,
	// so a delta compile that drifted from the from-scratch result is
	// caught by any digest comparison downstream.
	s.seal(prev)
	return s, st, nil
}
