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

// sameInterval reports whether one /24 interval carries identical
// content in both snapshots: same prefix presence, same exact
// addresses, and byte-identical records under every mapper.
func sameInterval(a, b geoserve.Interval) bool {
	return a.Prefix == b.Prefix && slices.Equal(a.IPs, b.IPs) && bytes.Equal(a.Records, b.Records)
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
	mappers := new.Mappers()
	if !slices.Equal(old.Mappers(), mappers) {
		return nil, fmt.Errorf("snapfile: cannot diff across mapper sets %v -> %v", old.Mappers(), mappers)
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
		return appendBuild(b, new.Build())
	})
	buf = appendMappers(buf, mappers)
	// ASNs and footprints travel whole every epoch, so footprint drift
	// never needs interval ops. They are most of a delta's bytes: 48
	// bytes per ASN per mapper, 298 KB of a 303 KB churn-step delta at
	// scale 0.1.
	asns, footprints := new.FootprintTables()
	buf = appendASNs(buf, asns)
	buf = appendFootprints(buf, footprints)

	// Ops, ascending by key: one merge pass over both leaf lists, and
	// inside each group whose leaves differ one over both interval lists.
	ol, nl := old.Leaves(), new.Leaves()
	var ovs, nvs []geoserve.Interval
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
			ovs, nvs = old.AppendIntervals(ovs[:0], base), new.AppendIntervals(nvs[:0], base)
			oi, ni := 0, 0
			for oi < len(ovs) || ni < len(nvs) {
				switch {
				case ni >= len(nvs) || (oi < len(ovs) && ovs[oi].Key < nvs[ni].Key):
					b = binary.LittleEndian.AppendUint32(b, ovs[oi].Key)
					b = append(b, opDel)
					nOps++
					oi++
				case oi >= len(ovs) || nvs[ni].Key < ovs[oi].Key:
					b = appendPutOp(b, nvs[ni])
					nOps++
					ni++
				default:
					if !sameInterval(ovs[oi], nvs[ni]) {
						b = appendPutOp(b, nvs[ni])
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
// addresses, then per mapper its records — the prefix record if any,
// then the exact records in address order (geoserve.Interval's
// layout).
func appendPutOp(b []byte, v geoserve.Interval) []byte {
	b = binary.LittleEndian.AppendUint32(b, v.Key)
	prefix := byte(0)
	if v.Prefix {
		prefix = 1
	}
	b = append(b, opPut, prefix)
	b = appendU32s(b, v.IPs)
	return append(b, v.Records...)
}

// Apply verifies a delta end to end and rebuilds the target snapshot
// from base: magic and version gate first, every op is bounds-checked,
// the whole-file hash must match, the base's content digest must equal
// the delta's from-digest, and the reassembled snapshot's recomputed
// digest must equal the to-digest trailer — an applied delta can never
// yield a snapshot the builder did not publish. geoserve.Derive does
// the rebuild: it holds the ops to their order and shape, shares
// base's pages and leaf hash for every leaf group no op lies in, and
// copies and checks the rows of the rest. The result retains no byte
// of data; it retains base's memory in the pages it shares.
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

	t := geoserve.Tables{Build: info.Build}
	if t.Mappers, err = decodeMappers(d); err != nil {
		return nil, info, err
	}
	if t.ASNs, err = decodeASNs(d); err != nil {
		return nil, info, err
	}
	if t.Footprints, err = decodeFootprints(d, len(t.Mappers), len(t.ASNs)); err != nil {
		return nil, info, err
	}
	ops, err := decodeOps(d, len(t.Mappers))
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
	snap, err := assemble(info.ToDigest, func() (*geoserve.Snapshot, error) { return geoserve.Derive(base, t, ops) })
	return snap, info, err
}

// decodeOps parses the ops section into geoserve.Derive's edits: a
// delete op is an interval with no rows, and a put op must carry at
// least one. Each op's records alias data.
func decodeOps(d *decoder, nMappers int) ([]geoserve.Interval, error) {
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
	ops := make([]geoserve.Interval, 0, nOps)
	for i := 0; i < int(nOps); i++ {
		key, err := sec.u32("op key")
		if err != nil {
			return nil, err
		}
		kindB, err := sec.take(1, "op kind")
		if err != nil {
			return nil, err
		}
		op := geoserve.Interval{Key: key}
		switch kindB[0] {
		case opDel:
		case opPut:
			flags, err := sec.take(1, "op prefix flag")
			if err != nil {
				return nil, err
			}
			if flags[0] > 1 {
				return nil, fmt.Errorf("%w: op prefix flag %d", ErrFormat, flags[0])
			}
			op.Prefix = flags[0] == 1
			nIPs, err := sec.u32("op ip count")
			if err != nil {
				return nil, err
			}
			if nIPs == 0 && !op.Prefix {
				return nil, fmt.Errorf("%w: put op for /24 %d carries no rows", ErrFormat, key)
			}
			if uint64(nIPs)*4 > uint64(sec.remaining()) {
				return nil, fmt.Errorf("%w: op ip count %d exceeds section size", ErrFormat, nIPs)
			}
			op.IPs = make([]uint32, nIPs)
			for k := range op.IPs {
				op.IPs[k] = sec.rawU32()
			}
			rows := len(op.IPs)
			if op.Prefix {
				rows++
			}
			if op.Records, err = sec.take(nMappers*rows*geoserve.RecordSize, "op records"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrFormat, kindB[0])
		}
		ops = append(ops, op)
	}
	if err := sec.done("delta ops"); err != nil {
		return nil, err
	}
	return ops, nil
}
