package snapfile

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"geonet/internal/geoserve"
)

// DeltaFormatVersion is the snapshot delta format this package writes
// and the only one it applies.
const DeltaFormatVersion = 4

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
	// Ops counts the leaf groups the delta puts or deletes.
	Ops int
}

// Diff computes the deterministic delta that turns old into new, one
// op per changed leaf group: a group whose leaf hash differs (see
// geoserve.Snapshot.Leaves), or that only new holds, travels whole, and
// one that only old holds travels as its base with no rows. Equal
// leaves mean an unchanged group, and Apply's to-digest check would
// catch one this missed. Mapper sets must match (a put carries one page
// per mapper, in mapper order; a world that gained or lost a mapper
// must travel as a full snapshot instead). The encoding carries the
// same dual-digest trailer discipline as full snapshot files: new's
// content digest plus a whole-file SHA-256.
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

	// The ops, ascending by base: one merge pass over both leaf lists
	// gathers the changed groups as shared views, so that the delta can
	// be allocated once.
	var ops []geoserve.Group
	ol, nl := old.Leaves(), new.Leaves()
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
		ops = append(ops, new.Group(base))
	}

	// ASNs and footprints travel whole every epoch. They are most of a
	// delta's bytes: 48 bytes per ASN per mapper, 298 KB of a 382 KB
	// churn-step delta at scale 0.1.
	asns, footprints := new.FootprintTables()
	size := 1<<10 + len(new.Build().Label) + len(asns)*(4+len(mappers)*footprintRowBytes) // 1 KB bounds the fixed fields
	for _, name := range mappers {
		size += 4 + len(name)
	}
	for _, g := range ops {
		size += 12 + (len(g.Prefixes)+len(g.IPs))*(2+len(mappers)*geoserve.RecordSize)
	}
	buf := append(make([]byte, 0, size), deltaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, DeltaFormatVersion)
	buf = appendSection(buf, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint64(b, fromEpoch)
		b = binary.LittleEndian.AppendUint64(b, toEpoch)
		b = append(b, fromDigest...)
		return appendBuild(b, new.Build())
	})
	buf = appendMappers(buf, mappers)
	buf = appendASNs(buf, asns)
	buf = appendFootprints(buf, footprints)
	buf = appendSection(buf, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
		for _, g := range ops {
			b = appendOp(b, g)
		}
		return b
	})
	return appendTrailer(buf, toDigest), nil
}

// appendOp emits a leaf group whole: its base, its /24s and exact
// addresses as offsets from the base, and the byte count and bytes of
// its pages, mapper after mapper.
func appendOp(b []byte, g geoserve.Group) []byte {
	b = binary.LittleEndian.AppendUint32(b, g.Base)
	for _, keys := range [][]uint32{g.Prefixes, g.IPs} {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(keys)))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint16(b, uint16(k-g.Base))
		}
	}
	n := 0
	for _, page := range g.Pages {
		n += len(page)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, page := range g.Pages {
		b = append(b, page...)
	}
	return b
}

// Apply verifies a delta end to end and rebuilds the target snapshot
// from base: magic and version gate first, every op is bounds-checked,
// the whole-file hash must match, the base's content digest must equal
// the delta's from-digest, and the reassembled snapshot's recomputed
// digest must equal the to-digest trailer — an applied delta can never
// yield a snapshot the builder did not publish. geoserve.Derive does
// the rebuild: it holds the ops to their order and shape, copies and
// checks the pages of each group an op puts, and shares base's pages
// and leaf hash for every group no op names. The result retains no
// byte of data; it retains base's memory in the pages it shares.
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

// decodeOps parses the ops section into geoserve.Derive's groups. The
// records of each op are cut into len(mappers) equal pages, which
// Derive holds to the op's row count; they alias data.
func decodeOps(d *decoder, nMappers int) ([]geoserve.Group, error) {
	sec, err := d.section("delta ops")
	if err != nil {
		return nil, err
	}
	nOps, err := sec.u32("op count")
	if err != nil {
		return nil, err
	}
	// Every op costs at least its 12-byte base, key counts and record
	// byte count, bounding the count before anything allocates.
	if uint64(nOps)*12 > uint64(sec.remaining()) {
		return nil, fmt.Errorf("%w: op count %d exceeds section size", ErrFormat, nOps)
	}
	ops := make([]geoserve.Group, nOps)
	for i := range ops {
		op := &ops[i]
		if op.Base, err = sec.u32("op base"); err != nil {
			return nil, err
		}
		if op.Prefixes, err = sec.offsets(op.Base, "op prefixes"); err != nil {
			return nil, err
		}
		if op.IPs, err = sec.offsets(op.Base, "op exact addresses"); err != nil {
			return nil, err
		}
		n, err := sec.u32("op record bytes")
		if err != nil {
			return nil, err
		}
		recs, err := sec.take(int(n), "op records")
		if err != nil {
			return nil, err
		}
		op.Pages = make([][]byte, nMappers)
		for m := range op.Pages {
			op.Pages[m] = recs[m*len(recs)/nMappers : (m+1)*len(recs)/nMappers]
		}
	}
	if err := sec.done("delta ops"); err != nil {
		return nil, err
	}
	return ops, nil
}
