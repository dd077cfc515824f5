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
	// (new's leaf j is its group j) gathers the changed groups as shared
	// views, so that the delta can be allocated once.
	var ops []geoserve.Group
	ol, nl, ng := old.Leaves(), new.Leaves(), new.Groups()
	none := make([][]byte, len(mappers)) // a delete's pages
	for gi, gj := 0, 0; gi < len(ol) || gj < len(nl); {
		switch {
		case gj >= len(nl) || (gi < len(ol) && ol[gi].Base < nl[gj].Base):
			ops = append(ops, geoserve.Group{Base: ol[gi].Base, Pages: none})
			gi++
		case gi >= len(ol) || nl[gj].Base < ol[gi].Base:
			ops = append(ops, ng[gj])
			gj++
		default:
			if ol[gi].Sum != nl[gj].Sum {
				ops = append(ops, ng[gj])
			}
			gi, gj = gi+1, gj+1
		}
	}

	// ASNs and footprints travel whole every epoch. They are most of a
	// delta's bytes: 48 bytes per ASN per mapper, 298 KB of a 382 KB
	// churn-step delta at scale 0.1.
	head := binary.LittleEndian.AppendUint64(nil, fromEpoch)
	head = binary.LittleEndian.AppendUint64(head, toEpoch)
	return write(deltaMagic, DeltaFormatVersion, append(head, fromDigest...), new.Header(), ops, toDigest), nil
}

// Apply verifies a delta end to end and rebuilds the target snapshot
// from base: magic and version gate first, every op is bounds-checked,
// the whole-file hash must match, the base's content digest must equal
// the delta's from-digest, and the reassembled snapshot's recomputed
// digest must equal the to-digest trailer — an applied delta can never
// yield a snapshot the builder did not publish. geoserve.Derive does
// the rebuild: it holds the ops to their order and shape, keeps and
// checks the pages of each group an op puts (copied out of data once, by
// the decoder), and shares base's pages and leaf hash for every group no
// op names. The result retains no byte of data; it retains base's pages.
func Apply(base *geoserve.Snapshot, data []byte) (*geoserve.Snapshot, DeltaInfo, error) {
	info := DeltaInfo{SizeBytes: int64(len(data))}
	version, h, ops, err := read(data, deltaMagic, DeltaFormatVersion, func(head *decoder) (err error) {
		if info.FromEpoch, err = head.u64("from epoch"); err != nil {
			return err
		}
		if info.ToEpoch, err = head.u64("to epoch"); err != nil {
			return err
		}
		from, err := head.take(32, "from digest")
		info.FromDigest = hex.EncodeToString(from)
		return err
	})
	info.FormatVersion, info.Build, info.Ops = version, h.Build, len(ops)
	if err != nil {
		return nil, info, err
	}
	info.ToDigest = trailerDigest(data)
	if base == nil || base.Digest() != info.FromDigest {
		have := "<nil>"
		if base != nil {
			have = base.Digest()
		}
		return nil, info, fmt.Errorf("%w: delta is from %s, base is %s", ErrDeltaBase, info.FromDigest, have)
	}
	snap, err := assemble(info.ToDigest, base, h, ops)
	return snap, info, err
}
