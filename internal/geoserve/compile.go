package geoserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// materialises one. The snapshot compiled from it keeps none of its
// slices: a leaf group's keys are a copy of the source's, or the
// previous snapshot's where the group kept them.
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
	// Recompiled rows were answered fresh through the mappers: every
	// row of a leaf group whose keys differ from those of the previous
	// snapshot's group at its base (or that has none there), and in the
	// other groups the rows under a dirty /24.
	Recompiled int `json:"recompiled"`
	// Patched rows had only their confidence radius re-derived from a
	// changed AS footprint — no mapper or BGP work.
	Patched int `json:"patched"`
	// Touched lists, ascending, the /24 bases whose answers may differ
	// from the previous snapshot: in a leaf group that kept its keys,
	// each /24 with a row that came out different; in any other
	// group, every /24 it held before and holds after. Cluster.SwapDelta
	// uses it to count the shards a delta really moved.
	Touched []uint32 `json:"-"`
}

// Compile turns the source into an immutable serving snapshot: its
// leaf groups, each holding its allocated /24s and known interface
// addresses with an exact answer per address and a prefix-level answer
// for the generic hosts of each /24, and per-AS footprints. It is a
// delta compile with no previous snapshot: every leaf group is answered
// whole and derived from nothing. Compilation parallelizes over per-row slots (up to
// GOMAXPROCS), so the result (and its Digest) is identical at any
// parallelism.
func Compile(src Source) (*Snapshot, error) {
	s, _, err := compile(nil, src, nil)
	return s, err
}

// CompileDelta incrementally recompiles prev into a new snapshot for a
// churned source, recomputing only the rows whose answers could have
// changed and sharing or copying everything else from prev.
//
// The contract: src must differ from the source prev was compiled from
// only in (a) routes and allocations covering the /24s listed in
// dirty, (b) interface addresses added or removed — detected from the
// sources themselves: such a change alters its leaf group's keys, and
// the whole group is recomputed (an interface appearing or vanishing
// can shift its /24's representative "generic host" address, which
// never leaves the group) — and (c) AS footprints, detected by
// comparing prev's footprint tables against src's (a changed footprint
// re-derives the radius of every row attributed to that AS, with no
// mapper work). The mappers themselves must be the same objects
// answering identically outside dirty /24s; under that contract the
// result is byte-identical — same Digest — to a from-scratch Compile
// of src (pinned per churn step by the golden churn corpus).
func CompileDelta(prev *Snapshot, src Source, dirty []uint32) (*Snapshot, DeltaStats, error) {
	if prev == nil {
		return nil, DeltaStats{}, fmt.Errorf("geoserve: delta compile: nil previous snapshot (use Compile)")
	}
	return compile(prev, src, dirty)
}

// Row ops: what compile does with a row of a leaf group that kept
// prev's keys. Every row of any other group is recomputed.
const (
	opRecompute uint8 = iota
	opCopy
	opPatch
)

// rowAt is row r of the page of built group b.
type rowAt struct{ b, r int32 }

// built is a put or a delete (no rows) for Derive. kept is prev's
// group with the same keys, whose rows its pages line up with one for
// one, or -1 for a group answered whole and for a delete.
type built struct {
	g    Group
	kept int
}

// compile is the one compile path, and a derivation: it returns
// Derive(prev, header, the groups of src whose rows differ from prev's
// and a delete per group of prev that src lacks); with prev nil that is
// every group. A group that prev lacks, or whose keys differ from
// those of prev's group at its base, is answered whole. A group that
// kept prev's keys is copied from prev's pages, with each row under a
// dirty /24 recomputed and each whose AS footprint changed patched; it
// is skipped without a row loop when it holds no dirty /24 and no
// footprint changed, and dropped when every row equals prev's.
func compile(prev *Snapshot, src Source, dirty []uint32) (*Snapshot, DeltaStats, error) {
	var st DeltaStats
	s, err := skeleton(src)
	if err != nil {
		return nil, st, err
	}
	h := s.Header()
	nm := len(h.Mappers)
	// prev's groups, when its pages can be read mapper by mapper
	// against src's; Derive refuses a prev whose mappers differ.
	var old []Group
	changedASN := map[int32]bool{}
	if prev != nil && slices.Equal(prev.mappers, h.Mappers) {
		old = prev.groups
		// The ASNs whose footprint changed under any mapper: merge
		// prev.asns against s.asns; an ASN present on only one side, or
		// whose footprint differs under any mapper, changed.
		for i, j := 0, 0; i < len(prev.asns) || j < len(s.asns); {
			switch {
			case j >= len(s.asns) || (i < len(prev.asns) && prev.asns[i] < s.asns[j]):
				changedASN[prev.asns[i]], i = true, i+1
			case i >= len(prev.asns) || s.asns[j] < prev.asns[i]:
				changedASN[s.asns[j]], j = true, j+1
			default:
				for m := 0; m < nm && !changedASN[s.asns[j]]; m++ {
					if prev.footprints[m][i] != s.footprints[m][j] {
						changedASN[s.asns[j]] = true
					}
				}
				i, j = i+1, j+1
			}
		}
	}
	dirtyBases := make([]uint32, len(dirty))
	for i, d := range dirty {
		dirtyBases[i] = d &^ 0xff
	}
	slices.Sort(dirtyBases)
	dirtyBases = slices.Compact(dirtyBases)

	var (
		builds  []built
		recomp  []rowAt
		touched []uint32
	)
	touch := func(g Group) {
		if prev == nil {
			return // Compile has no Touched
		}
		for _, keys := range [2][]uint32{g.Prefixes, g.IPs} {
			for _, key := range keys {
				touched = append(touched, key&^0xff)
			}
		}
	}
	gone := func(k int) { // prev's group k, which src lacks: a delete
		touch(old[k])
		builds = append(builds, built{g: Group{Base: old[k].Base, Pages: make([][]byte, nm)}, kept: -1})
	}
	gs := groups(src.Prefixes, src.IPs)
	k, d := 0, 0 // the groups ascend, so they walk old and dirtyBases once
	for i, g := range gs {
		// Derive holds each put's keys to their order; a group that is
		// not put keeps prev's keys, so ascending bases leave no key of
		// src unchecked.
		if i > 0 && g.Base <= gs[i-1].Base {
			return nil, st, fmt.Errorf("geoserve: source keys are not ascending at %s", FormatIPv4(g.Base))
		}
		for ; k < len(old) && old[k].Base < g.Base; k++ {
			gone(k)
		}
		for d < len(dirtyBases) && dirtyBases[d] < g.Base {
			d++
		}
		e := d
		for e < len(dirtyBases) && leafBase(dirtyBases[e]) == g.Base {
			e++
		}
		// A group that kept prev's keys holds prev's, and any other a
		// copy of src's: the snapshot keeps none of src.
		b, rows := built{g: g, kept: -1}, len(g.Prefixes)+len(g.IPs)
		if k < len(old) && old[k].Base == g.Base {
			if g.sameKeys(old[k]) {
				b.kept, b.g.Prefixes, b.g.IPs = k, old[k].Prefixes, old[k].IPs
			} else {
				touch(old[k])
			}
			k++
		}
		// op is what becomes of row r; every row of a group answered
		// whole is recomputed.
		op := func(r int) uint8 {
			switch {
			case b.kept < 0 || slices.Contains(dirtyBases[d:e], b.g.key(r)&^0xff):
				return opRecompute
			case changedASN[recordASN(prev.page(0, b.kept)[r*RecordSize:])]:
				return opPatch
			}
			return opCopy
		}
		if b.kept >= 0 {
			moved := false
			for r := 0; !moved && (d < e || len(changedASN) > 0) && r < rows; r++ {
				moved = op(r) != opCopy
			}
			if !moved {
				continue
			}
		}
		b.g.Pages = make([][]byte, nm)
		size := rows * RecordSize
		buf := make([]byte, nm*size)
		for m := range nm {
			b.g.Pages[m], buf = buf[:size:size], buf[size:]
			if b.kept >= 0 {
				copy(b.g.Pages[m], prev.page(m, b.kept))
			}
		}
		if b.kept < 0 {
			keys, np := slices.Concat(g.Prefixes, g.IPs), len(g.Prefixes)
			b.g.Prefixes, b.g.IPs = keys[:np:np], keys[np:]
			touch(b.g)
		}
		for r := range rows {
			switch op(r) {
			case opRecompute:
				recomp = append(recomp, rowAt{int32(len(builds)), int32(r)})
				st.Recompiled++
			case opPatch:
				st.Patched++
				for m, page := range b.g.Pages {
					rec := page[r*RecordSize:][:RecordSize]
					fp, _ := s.Footprint(m, int(recordASN(rec)))
					binary.LittleEndian.PutUint64(rec[recOffRadius:], math.Float64bits(fp.RadiusMi))
				}
			}
		}
		builds = append(builds, b)
	}
	for ; k < len(old); k++ {
		gone(k)
	}

	// The address each recomputed row is answered for: an exact row's
	// own address, and per /24 a representative "generic host" address
	// — the highest address in the block that is not a known interface,
	// so the prefix-level answer reflects what the mapper says about an
	// arbitrary, PTR-less host there (whois by range, EdgeScape feed by
	// /24). Copied and patched rows keep prev's, which cannot have moved.
	addrs := make([]uint32, len(recomp))
	parallel.ForEach(len(recomp), func(i int) {
		g, r := &builds[recomp[i].b].g, int(recomp[i].r)
		if addrs[i] = g.key(r); r < len(g.Prefixes) {
			addrs[i] = GenericHost(src.IPs, addrs[i])
		}
	})
	var firstErr compileErr
	for m, named := range src.Mappers {
		parallel.ForEach(len(recomp), func(i int) {
			g, r := &builds[recomp[i].b].g, int(recomp[i].r)
			firstErr.set(compileRecord(g.Pages[m][r*RecordSize:], s, m, named.Mapper, src.Table, addrs[i], r >= len(g.Prefixes)))
		})
	}
	if firstErr.err != nil {
		return nil, st, firstErr.err
	}

	// A group that kept its keys is put only if a row came out
	// different from prev's, and only such a row's /24 counts as
	// touched.
	puts := make([]Group, 0, len(builds))
	for _, b := range builds {
		moved := b.kept < 0
		for m := 0; b.kept >= 0 && m < nm; m++ {
			page, was := b.g.Pages[m], prev.page(m, b.kept)
			for r := 0; r*RecordSize < len(page); r++ {
				if !bytes.Equal(page[r*RecordSize:][:RecordSize], was[r*RecordSize:][:RecordSize]) {
					touched = append(touched, b.g.key(r)&^0xff)
					moved = true
				}
			}
		}
		if moved {
			puts = append(puts, b.g)
		}
	}
	slices.Sort(touched)
	st.Rows, st.Touched = len(src.Prefixes)+len(src.IPs), slices.Compact(touched)
	snap, err := Derive(prev, h, puts)
	if err != nil {
		return nil, st, err
	}
	return snap, st, nil
}

// skeleton builds the header of src's snapshot, everything no mapper
// answer and no key goes into: the build, the mapper names and the
// footprint tables, the union of every mapper's ASNs with a zero row
// where a mapper has none. check then holds them to the rules Derive
// holds outside bytes to; what only a Source can get wrong is checked
// here: an empty address set, a nil table, a nil mapper, a mapper's
// footprints out of ascending ASN order.
func skeleton(src Source) (*Snapshot, error) {
	switch {
	case len(src.Prefixes) == 0 || len(src.IPs) == 0:
		return nil, fmt.Errorf("geoserve: empty address set (%d prefixes, %d IPs)", len(src.Prefixes), len(src.IPs))
	case src.Table == nil:
		return nil, fmt.Errorf("geoserve: nil BGP table")
	}
	s := &Snapshot{build: src.Build}
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
