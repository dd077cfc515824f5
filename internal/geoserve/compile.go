package geoserve

import (
	"fmt"
	"slices"
	"sync"

	"geonet/internal/analysis"
	"geonet/internal/bgp"
	"geonet/internal/geoloc"
	"geonet/internal/netgen"
	"geonet/internal/parallel"
)

// Source bundles everything Compile reads from a finished pipeline.
// core.Pipeline.Serve constructs it; tests can assemble one by hand.
type Source struct {
	// Internet supplies the allocated address space (the /24 interval
	// index) and the known interface addresses.
	Internet *netgen.Internet
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

// Compile flattens the source into an immutable serving snapshot: one
// sorted /24 interval index over the allocated space, exact answers
// for every known interface address, prefix-level answers for generic
// hosts, and per-AS footprints. Compilation parallelizes over
// per-index slots (up to GOMAXPROCS), so the result (and its Digest)
// is identical at any parallelism.
func Compile(src Source) (*Snapshot, error) {
	s, byASN, err := skeleton(src)
	if err != nil {
		return nil, err
	}
	in := src.Internet

	// addrs[row] is the address a slab row is answered for: an exact
	// row's own address, and per /24 a representative "generic host"
	// address — the highest address in the block that is not a known
	// interface, so the prefix-level answer reflects what the mapper
	// says about an arbitrary, PTR-less host there (whois by range,
	// EdgeScape feed by /24).
	rows := len(s.prefixes) + len(s.ips)
	addrs := make([]uint32, rows)
	parallel.ForEach(len(s.prefixes), func(i int) {
		addrs[i] = genericHost(in, s.prefixes[i])
	})
	copy(addrs[len(s.prefixes):], s.ips)

	// Every row of every mapper's slab is written in place, once.
	var firstErr compileErr
	for m, nm := range src.Mappers {
		slab := make([]byte, rows*RecordSize)
		parallel.ForEach(rows, func(row int) {
			firstErr.set(compileRecord(slab[row*RecordSize:], nm.Mapper, src.Table, byASN[m], addrs[row], row >= len(s.prefixes)))
		})
		s.records = append(s.records, slab)
	}
	if firstErr.err != nil {
		return nil, firstErr.err
	}

	s.seal(nil)
	return s, nil
}

// skeleton validates src and builds everything of its snapshot that no
// mapper answer goes into: the mapper names, the /24 and exact-address
// indexes and the footprint tables. byASN[m] is mapper m's footprints
// by ASN, where compileRecord reads a row's confidence radius. Compile
// and CompileDelta both start here, which is what guarantees the two
// enumerate and order the indexes identically.
func skeleton(src Source) (s *Snapshot, byASN []map[int]analysis.ASFootprint, err error) {
	if src.Internet == nil {
		return nil, nil, fmt.Errorf("geoserve: nil Internet")
	}
	if src.Table == nil {
		return nil, nil, fmt.Errorf("geoserve: nil BGP table")
	}
	if len(src.Mappers) == 0 {
		return nil, nil, fmt.Errorf("geoserve: no mappers")
	}
	in := src.Internet

	s = &Snapshot{build: src.Build}
	for _, nm := range src.Mappers {
		if nm.Mapper == nil {
			return nil, nil, fmt.Errorf("geoserve: nil mapper")
		}
		name := nm.Mapper.Name()
		if slices.Contains(s.mappers, name) {
			return nil, nil, fmt.Errorf("geoserve: duplicate mapper %q", name)
		}
		s.mappers = append(s.mappers, name)
	}

	// The /24 interval index: every /24 of every AS's originated
	// prefixes, ascending. Prefixes are disjoint across ASes, so the
	// dedup only guards degenerate inputs.
	for ai := range in.ASes {
		for _, p := range in.ASes[ai].Prefixes {
			s.prefixes = slices.AppendSeq(s.prefixes, p.Blocks24())
		}
	}
	radixSort(s.prefixes)
	s.prefixes = slices.Compact(s.prefixes)

	// Exact answers for every public interface address.
	s.ips = make([]uint32, 0, len(in.Ifaces))
	for i := range in.Ifaces {
		if ifc := &in.Ifaces[i]; ifc.IP != 0 && !ifc.Private {
			s.ips = append(s.ips, ifc.IP)
		}
	}
	radixSort(s.ips)
	s.ips = slices.Compact(s.ips)

	// Footprint tables: union of ASNs across mappers, ascending; a
	// zero-ASN footprint marks absence under one mapper.
	byASN = make([]map[int]analysis.ASFootprint, len(src.Mappers))
	for m, nm := range src.Mappers {
		byASN[m] = make(map[int]analysis.ASFootprint, len(nm.Footprints))
		for _, fp := range nm.Footprints {
			if fp.ASN <= 0 {
				return nil, nil, fmt.Errorf("geoserve: footprint with non-positive ASN %d", fp.ASN)
			}
			byASN[m][fp.ASN] = fp
			s.asns = append(s.asns, int32(fp.ASN))
		}
	}
	slices.Sort(s.asns)
	s.asns = slices.Compact(s.asns)
	s.footprints = make([][]analysis.ASFootprint, len(src.Mappers))
	for m := range src.Mappers {
		s.footprints[m] = make([]analysis.ASFootprint, len(s.asns))
		for i, asn := range s.asns {
			s.footprints[m][i] = byASN[m][int(asn)] // zero value when absent
		}
	}
	return s, byASN, nil
}

// radixSort sorts xs ascending, exactly as slices.Sort does, in four
// LSD passes of one byte each (a pass whose byte is the same in every
// element is skipped): linear in len(xs), where a comparison sort of an
// epoch's tens of thousands of interface addresses costs milliseconds.
func radixSort(xs []uint32) {
	if slices.IsSorted(xs) { // the /24s usually arrive in order
		return
	}
	var counts [4][256]int
	for _, v := range xs {
		counts[0][v&0xff]++
		counts[1][v>>8&0xff]++
		counts[2][v>>16&0xff]++
		counts[3][v>>24]++
	}
	src, dst := xs, make([]uint32, len(xs))
	for pass := range counts {
		c, shift := &counts[pass], uint(8*pass)
		if c[src[0]>>shift&0xff] == len(xs) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, v := range src {
			b := v >> shift & 0xff
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// genericHost picks the representative address of the /24 at base (see
// Compile): the highest one that is not a known interface, or base
// itself when all 256 are.
func genericHost(in *netgen.Internet, base uint32) uint32 {
	for off := uint32(255); off > 0; off-- {
		if _, taken := in.ByIP[base+off]; !taken {
			return base + off
		}
	}
	return base
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

// compileRecord precomputes one answer into dst: mapper resolution,
// BGP origin AS and the footprint-derived confidence radius.
func compileRecord(dst []byte, mapper geoloc.MethodMapper, table *bgp.Table, footprints map[int]analysis.ASFootprint, ip uint32, exact bool) error {
	a := Answer{Exact: exact}
	if p, methodName, ok := mapper.LocateMethod(ip); ok {
		a.Loc, a.Method, a.Found = p, methodName, true
	}
	if asn, ok := table.OriginAS(ip); ok {
		a.ASN = asn
		if fp, ok := footprints[asn]; ok {
			a.RadiusMi = fp.RadiusMi
		}
	}
	if err := PutRecord(dst, a); err != nil {
		return fmt.Errorf("geoserve: mapper %q at %s: %w", mapper.Name(), FormatIPv4(ip), err)
	}
	return nil
}
