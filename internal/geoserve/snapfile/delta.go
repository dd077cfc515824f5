package snapfile

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"geonet/internal/geoserve"
)

// DeltaFormatVersion is the snapshot delta format this package writes
// and the only one it applies.
const DeltaFormatVersion = 3

// deltaMagic identifies a snapshot delta file; it never changes across
// versions.
const deltaMagic = "geosnapd"

// ErrDeltaBase: a valid delta, but its from-digest names a different
// base snapshot than the one Apply was given.
var ErrDeltaBase = errors.New("snapfile: delta does not apply to this base snapshot")

// DeltaInfo reports a delta's identity.
type DeltaInfo struct {
	FormatVersion uint32
	// FromEpoch/ToEpoch are the replication epochs the delta bridges.
	FromEpoch uint64
	ToEpoch   uint64
	// FromDigest is the content digest (hex) of the required base
	// snapshot; ToDigest the digest the applied result must hash to.
	FromDigest string
	ToDigest   string
	Build      geoserve.BuildInfo
	SizeBytes  int64
	// Ops counts the changed /24 intervals the delta carries.
	Ops int
}

// Delta op kinds: a /24 interval is either removed or fully replaced.
// Unchanged intervals are not mentioned at all — that omission is what
// makes mostly-unchanged epochs travel small.
const (
	opDel = 0
	opPut = 1
)

// ival is one /24 interval's rows inside a Tables: the prefix row, if
// the /24 has one, and the exact-address rows whose /24 it is, both as
// half-open ranges.
type ival struct {
	key      uint32 // /24 base address
	pLo, pHi int    // into Prefixes; 0 or 1 rows
	ipLo     int    // into IPs
	ipHi     int
}

// intervals appends to dst, in key order, the /24 intervals of t's row
// space inside the leaf group at base (see geoserve.LeafBase). Both
// indexes are ascending, so one merge pass from the group's first rows
// yields them.
func intervals(dst []ival, t geoserve.Tables, base uint32) []ival {
	pi, _ := slices.BinarySearch(t.Prefixes, base)
	ii, _ := slices.BinarySearch(t.IPs, base)
	pEnd, iEnd := pi, ii
	for pEnd < len(t.Prefixes) && geoserve.LeafBase(t.Prefixes[pEnd]) == base {
		pEnd++
	}
	for iEnd < len(t.IPs) && geoserve.LeafBase(t.IPs[iEnd]) == base {
		iEnd++
	}
	for pi < pEnd || ii < iEnd {
		var key uint32
		switch {
		case pi >= pEnd:
			key = t.IPs[ii] &^ 0xff
		case ii >= iEnd:
			key = t.Prefixes[pi]
		default:
			key = min(t.Prefixes[pi], t.IPs[ii]&^0xff)
		}
		v := ival{key: key, pLo: pi, ipLo: ii}
		if pi < pEnd && t.Prefixes[pi] == key {
			pi++
		}
		for ii < iEnd && t.IPs[ii]&^0xff == key {
			ii++
		}
		v.pHi, v.ipHi = pi, ii
		dst = append(dst, v)
	}
	return dst
}

// recs returns rows [lo, hi) of a slab of records.
func recs(slab []byte, lo, hi int) []byte {
	return slab[lo*geoserve.RecordSize : hi*geoserve.RecordSize]
}

// ivalEqual reports whether one /24 interval carries identical content
// in both snapshots: same prefix presence, same exact addresses, and
// byte-identical records under every mapper.
func ivalEqual(ot, nt geoserve.Tables, ov, nv ival) bool {
	if ov.pHi-ov.pLo != nv.pHi-nv.pLo || !slices.Equal(ot.IPs[ov.ipLo:ov.ipHi], nt.IPs[nv.ipLo:nv.ipHi]) {
		return false
	}
	op, np := len(ot.Prefixes), len(nt.Prefixes)
	for m := range ot.Records {
		if !bytes.Equal(recs(ot.Records[m], ov.pLo, ov.pHi), recs(nt.Records[m], nv.pLo, nv.pHi)) ||
			!bytes.Equal(recs(ot.Records[m], op+ov.ipLo, op+ov.ipHi), recs(nt.Records[m], np+nv.ipLo, np+nv.ipHi)) {
			return false
		}
	}
	return true
}

// Diff computes the deterministic per-/24-interval delta that turns
// old into new: unchanged intervals are omitted, changed or added ones
// travel whole, removed ones as tombstones. Only the leaf groups whose
// leaf hashes differ (see geoserve.Snapshot.Leaves) are compared
// interval by interval; an equal leaf means an unchanged group, and
// Apply's to-digest check would catch any interval this missed.
// Mapper sets must match
// (a delta rewrites interval rows in mapper order; a world that gained
// or lost a mapper must travel as a full snapshot instead). The
// encoding carries the same dual-digest trailer discipline as full
// snapshot files: new's content digest plus a whole-file SHA-256.
func Diff(old, new *geoserve.Snapshot, fromEpoch, toEpoch uint64) ([]byte, error) {
	ot, nt := old.Tables(), new.Tables()
	if !slices.Equal(ot.Mappers, nt.Mappers) {
		return nil, fmt.Errorf("snapfile: cannot diff across mapper sets %v -> %v", ot.Mappers, nt.Mappers)
	}
	fromDigest, err := rawDigest(old.Digest())
	if err != nil {
		return nil, err
	}
	toDigest, err := rawDigest(new.Digest())
	if err != nil {
		return nil, err
	}

	buf := []byte(deltaMagic)
	buf = binary.LittleEndian.AppendUint32(buf, DeltaFormatVersion)
	buf = appendSection(buf, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint64(b, fromEpoch)
		b = binary.LittleEndian.AppendUint64(b, toEpoch)
		b = append(b, fromDigest...)
		return appendBuild(b, nt.Build)
	})
	buf = appendMappers(buf, nt.Mappers)
	// ASNs and footprints travel whole every epoch, so footprint drift
	// never needs interval ops. They are most of a delta's bytes: 48
	// bytes per ASN per mapper, 298 KB of a 303 KB churn-step delta at
	// scale 0.1.
	buf = appendASNs(buf, nt.ASNs)
	buf = appendFootprints(buf, nt.Footprints)

	// Ops, ascending by key: one merge pass over both leaf lists, and
	// inside each group whose leaves differ one over both interval lists.
	ol, nl := old.Leaves(), new.Leaves()
	var ovs, nvs []ival
	buf = appendSection(buf, func(b []byte) []byte {
		at := len(b)
		b = binary.LittleEndian.AppendUint32(b, 0)
		nOps := 0
		for gi, gj := 0, 0; gi < len(ol) || gj < len(nl); {
			var base uint32
			switch {
			case gj >= len(nl) || (gi < len(ol) && ol[gi].Base < nl[gj].Base):
				base = ol[gi].Base
				gi++
			case gi >= len(ol) || nl[gj].Base < ol[gi].Base:
				base = nl[gj].Base
				gj++
			default:
				base = nl[gj].Base
				same := ol[gi].Sum == nl[gj].Sum
				gi, gj = gi+1, gj+1
				if same {
					continue
				}
			}
			ovs, nvs = intervals(ovs[:0], ot, base), intervals(nvs[:0], nt, base)
			oi, ni := 0, 0
			for oi < len(ovs) || ni < len(nvs) {
				switch {
				case ni >= len(nvs) || (oi < len(ovs) && ovs[oi].key < nvs[ni].key):
					b = binary.LittleEndian.AppendUint32(b, ovs[oi].key)
					b = append(b, opDel)
					nOps++
					oi++
				case oi >= len(ovs) || nvs[ni].key < ovs[oi].key:
					b = appendPutOp(b, nt, nvs[ni])
					nOps++
					ni++
				default:
					if !ivalEqual(ot, nt, ovs[oi], nvs[ni]) {
						b = appendPutOp(b, nt, nvs[ni])
						nOps++
					}
					oi++
					ni++
				}
			}
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(nOps))
		return b
	})
	return appendTrailer(buf, toDigest), nil
}

// appendPutOp emits an interval whole: its prefix flag and exact
// addresses, then per mapper its records as they sit in the slab —
// the prefix record if any, then the exact records in address order.
func appendPutOp(b []byte, t geoserve.Tables, v ival) []byte {
	b = binary.LittleEndian.AppendUint32(b, v.key)
	b = append(b, opPut, byte(v.pHi-v.pLo))
	b = appendU32s(b, t.IPs[v.ipLo:v.ipHi])
	np := len(t.Prefixes)
	for _, slab := range t.Records {
		b = append(b, recs(slab, v.pLo, v.pHi)...)
		b = append(b, recs(slab, np+v.ipLo, np+v.ipHi)...)
	}
	return b
}

// deltaOp is one decoded interval op.
type deltaOp struct {
	key    uint32
	kind   uint8
	prefix int // prefix rows carried: 0 or 1
	ips    []uint32
	// recs holds prefix+len(ips) records per mapper, in mapper order;
	// it aliases the delta's bytes.
	recs []byte
}

// Apply verifies a delta end to end and rebuilds the target snapshot
// from base: magic and version gate first, every op is bounds- and
// order-checked, the whole-file hash must match, the base's content
// digest must equal the delta's from-digest, and the reassembled
// snapshot's recomputed digest must equal the to-digest trailer — an
// applied delta can never yield a snapshot the builder did not
// publish. Every row outside the ops' /24s is base's, so the digest
// reuses base's leaf hash, and skips the record checks, for each leaf
// group no op lies in (see geoserve.FromTables). The result retains
// neither data nor base's memory.
func Apply(base *geoserve.Snapshot, data []byte) (*geoserve.Snapshot, DeltaInfo, error) {
	info := DeltaInfo{SizeBytes: int64(len(data))}
	d, version, err := openEnvelope(data, deltaMagic, DeltaFormatVersion)
	info.FormatVersion = version
	if err != nil {
		return nil, info, err
	}
	header, err := d.section("delta header")
	if err != nil {
		return nil, info, err
	}
	if info.FromEpoch, err = header.u64("from epoch"); err != nil {
		return nil, info, err
	}
	if info.ToEpoch, err = header.u64("to epoch"); err != nil {
		return nil, info, err
	}
	fromRaw, err := header.take(32, "from digest")
	if err != nil {
		return nil, info, err
	}
	info.FromDigest = hex.EncodeToString(fromRaw)
	if info.Build, err = decodeBuild(header); err != nil {
		return nil, info, err
	}
	if err := header.done("delta header"); err != nil {
		return nil, info, err
	}
	info.ToDigest = trailerDigest(data)

	mappers, err := decodeMappers(d)
	if err != nil {
		return nil, info, err
	}
	asns, err := decodeASNs(d)
	if err != nil {
		return nil, info, err
	}
	footprints, err := decodeFootprints(d, len(mappers), len(asns))
	if err != nil {
		return nil, info, err
	}
	ops, err := decodeOps(d, len(mappers))
	if err != nil {
		return nil, info, err
	}
	info.Ops = len(ops)
	if err := closeEnvelope(data, d); err != nil {
		return nil, info, err
	}

	if base == nil || base.Digest() != info.FromDigest {
		have := "<nil>"
		if base != nil {
			have = base.Digest()
		}
		return nil, info, fmt.Errorf("%w: delta is from %s, base is %s", ErrDeltaBase, info.FromDigest, have)
	}
	bt := base.Tables()
	if !slices.Equal(bt.Mappers, mappers) {
		return nil, info, fmt.Errorf("%w: delta mappers %v != base mappers %v", ErrFormat, mappers, bt.Mappers)
	}
	nt, err := applyOps(bt, ops)
	if err != nil {
		return nil, info, err
	}
	nt.Build, nt.Mappers, nt.ASNs, nt.Footprints = info.Build, mappers, asns, footprints
	keys := make([]uint32, len(ops))
	for i, op := range ops {
		keys[i] = op.key
	}
	snap, err := assemble(nt, info.ToDigest, base, keys)
	return snap, info, err
}

func decodeOps(d *decoder, nMappers int) ([]deltaOp, error) {
	sec, err := d.section("delta ops")
	if err != nil {
		return nil, err
	}
	nOps, err := sec.u32("op count")
	if err != nil {
		return nil, err
	}
	// Every op costs at least its 5-byte key+kind, bounding the count
	// before anything allocates.
	if uint64(nOps)*5 > uint64(sec.remaining()) {
		return nil, fmt.Errorf("%w: op count %d exceeds section size", ErrFormat, nOps)
	}
	ops := make([]deltaOp, 0, nOps)
	for i := 0; i < int(nOps); i++ {
		key, err := sec.u32("op key")
		if err != nil {
			return nil, err
		}
		if key&0xff != 0 {
			return nil, fmt.Errorf("%w: op key %d not /24-aligned", ErrFormat, key)
		}
		if len(ops) > 0 && ops[len(ops)-1].key >= key {
			return nil, fmt.Errorf("%w: op keys not strictly ascending at %d", ErrFormat, key)
		}
		kindB, err := sec.take(1, "op kind")
		if err != nil {
			return nil, err
		}
		op := deltaOp{key: key, kind: kindB[0]}
		switch op.kind {
		case opDel:
		case opPut:
			flags, err := sec.take(1, "op prefix flag")
			if err != nil {
				return nil, err
			}
			if flags[0] > 1 {
				return nil, fmt.Errorf("%w: op prefix flag %d", ErrFormat, flags[0])
			}
			op.prefix = int(flags[0])
			nIPs, err := sec.u32("op ip count")
			if err != nil {
				return nil, err
			}
			if uint64(nIPs)*4 > uint64(sec.remaining()) {
				return nil, fmt.Errorf("%w: op ip count %d exceeds section size", ErrFormat, nIPs)
			}
			op.ips = make([]uint32, nIPs)
			for k := range op.ips {
				op.ips[k] = sec.rawU32()
				if op.ips[k]&^0xff != key {
					return nil, fmt.Errorf("%w: op ip %d outside its /24 %d", ErrFormat, op.ips[k], key)
				}
				if k > 0 && op.ips[k-1] >= op.ips[k] {
					return nil, fmt.Errorf("%w: op ips not strictly ascending in /24 %d", ErrFormat, key)
				}
			}
			if op.recs, err = sec.take(nMappers*(op.prefix+len(op.ips))*geoserve.RecordSize, "op records"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrFormat, op.kind)
		}
		ops = append(ops, op)
	}
	if err := sec.done("delta ops"); err != nil {
		return nil, err
	}
	return ops, nil
}

// applyOps rebuilds the target's index and slabs: base's rows copy
// through in runs between ops, an op's /24 is dropped from base, and a
// put op's rows take its place (or extend the index where base had no
// such /24). A target slab is the list of those record runs, prefix
// runs first and exact runs after; bytes.Join sizes the slab from them
// and writes every row once, with no zeroing or side buffer before it.
// The records are only checked afterwards, by geoserve.FromTables, and
// only in the leaf groups the ops touch: base's rows passed those
// checks when base was sealed.
func applyOps(base geoserve.Tables, ops []deltaOp) (geoserve.Tables, error) {
	nbp := len(base.Prefixes)
	putIPs := 0
	for _, op := range ops {
		putIPs += len(op.ips)
	}
	out := geoserve.Tables{
		Prefixes: make([]uint32, 0, nbp+len(ops)),
		IPs:      make([]uint32, 0, len(base.IPs)+putIPs),
	}
	pRuns := make([][][]byte, len(base.Records))
	iRuns := make([][][]byte, len(base.Records))
	pCur, iCur := 0, 0
	copyBase := func(pEnd, iEnd int) {
		out.Prefixes = append(out.Prefixes, base.Prefixes[pCur:pEnd]...)
		out.IPs = append(out.IPs, base.IPs[iCur:iEnd]...)
		for m, slab := range base.Records {
			pRuns[m] = append(pRuns[m], recs(slab, pCur, pEnd))
			iRuns[m] = append(iRuns[m], recs(slab, nbp+iCur, nbp+iEnd))
		}
	}
	for _, op := range ops {
		pEnd, _ := slices.BinarySearch(base.Prefixes, op.key)
		iEnd, _ := slices.BinarySearch(base.IPs, op.key)
		copyBase(pEnd, iEnd)
		pCur, iCur = pEnd, iEnd
		if pCur < nbp && base.Prefixes[pCur] == op.key {
			pCur++
		}
		for iCur < len(base.IPs) && base.IPs[iCur]&^0xff == op.key {
			iCur++
		}
		if op.kind == opDel {
			if pCur == pEnd && iCur == iEnd {
				return out, fmt.Errorf("%w: delta removes /24 %d absent from base", ErrFormat, op.key)
			}
			continue
		}
		if op.prefix == 1 {
			out.Prefixes = append(out.Prefixes, op.key)
		}
		out.IPs = append(out.IPs, op.ips...)
		rows := op.prefix + len(op.ips)
		for m := range pRuns {
			pRuns[m] = append(pRuns[m], recs(op.recs, m*rows, m*rows+op.prefix))
			iRuns[m] = append(iRuns[m], recs(op.recs, m*rows+op.prefix, (m+1)*rows))
		}
	}
	copyBase(nbp, len(base.IPs))
	for m := range pRuns {
		out.Records = append(out.Records, bytes.Join(append(pRuns[m], iRuns[m]...), nil))
	}
	return out, nil
}
