package geoserve

import (
	"fmt"
	"slices"
	"sync"

	"geonet/internal/analysis"
	"geonet/internal/bgp"
	"geonet/internal/geoloc"
	"geonet/internal/parallel"
)

// Source bundles everything Compile reads from a finished pipeline.
// core.Pipeline.ServeSource constructs it, and each churn step
// materialises one. Compile and CompileDelta keep Prefixes and IPs as
// the snapshot's indexes, so neither may change once compiled.
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

	// addrs[row] is the address a slab row is answered for: an exact
	// row's own address, and per /24 a representative "generic host"
	// address — the highest address in the block that is not a known
	// interface, so the prefix-level answer reflects what the mapper
	// says about an arbitrary, PTR-less host there (whois by range,
	// EdgeScape feed by /24).
	rows := len(s.prefixes) + len(s.ips)
	addrs := make([]uint32, rows)
	parallel.ForEach(len(s.prefixes), func(i int) {
		addrs[i] = GenericHost(s.ips, s.prefixes[i])
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
	if err := checkAscending("Prefixes", src.Prefixes); err != nil {
		return nil, nil, err
	}
	if err := checkAscending("IPs", src.IPs); err != nil {
		return nil, nil, err
	}
	for _, p := range src.Prefixes {
		if p&0xff != 0 {
			return nil, nil, fmt.Errorf("geoserve: Prefixes holds %s, not a /24 base", FormatIPv4(p))
		}
	}
	if src.Table == nil {
		return nil, nil, fmt.Errorf("geoserve: nil BGP table")
	}
	if len(src.Mappers) == 0 {
		return nil, nil, fmt.Errorf("geoserve: no mappers")
	}

	s = &Snapshot{build: src.Build, prefixes: src.Prefixes, ips: src.IPs}
	for _, nm := range src.Mappers {
		if nm.Mapper == nil {
			return nil, nil, fmt.Errorf("geoserve: nil mapper")
		}
		name := nm.Mapper.Name()
		if err := checkMapperName(name); err != nil {
			return nil, nil, err
		}
		if slices.Contains(s.mappers, name) {
			return nil, nil, fmt.Errorf("geoserve: duplicate mapper %q", name)
		}
		s.mappers = append(s.mappers, name)
	}
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

// checkAscending rejects an empty or not strictly ascending address
// set: the indexes are searched, merged and sealed as sorted sets.
func checkAscending(name string, xs []uint32) error {
	if len(xs) == 0 {
		return fmt.Errorf("geoserve: empty %s", name)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return fmt.Errorf("geoserve: %s not strictly ascending at %d (%s after %s)",
				name, i, FormatIPv4(xs[i]), FormatIPv4(xs[i-1]))
		}
	}
	return nil
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
