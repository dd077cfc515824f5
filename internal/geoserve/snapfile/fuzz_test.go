package snapfile

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"geonet/internal/geoserve"
)

var update = flag.Bool("update", false, "regenerate the fuzz seed corpus")

// reseal recomputes the trailing whole-file hash after a test mutates
// the bytes above it.
func reseal(b []byte) {
	sum := sha256.Sum256(b[:len(b)-32])
	copy(b[len(b)-32:], sum[:])
}

// checkLookups compares what a loaded snapshot serves with a binary
// search of its own groups — the lookup the directory replaced, which
// Derive builds from bytes a decoder read — at every stored /24, every
// exact address and their neighbours on both sides: the served answer
// must re-encode to the record of the row the search names, and be the
// bare miss where it names none.
func checkLookups(t *testing.T, snap *geoserve.Snapshot) {
	t.Helper()
	gs := snap.Groups()
	probe := func(ip uint32) {
		base := ip &^ (1<<12 - 1)
		k, _ := slices.BinarySearchFunc(gs, base, func(g geoserve.Group, base uint32) int { return cmp.Compare(g.Base, base) })
		g := geoserve.Group{Base: base, Pages: make([][]byte, len(snap.Mappers()))}
		if k < len(gs) && gs[k].Base == base {
			g = gs[k]
		}
		row, ok := slices.BinarySearch(g.IPs, ip)
		if ok {
			row += len(g.Prefixes)
		} else if row, ok = slices.BinarySearch(g.Prefixes, ip&^0xff); !ok {
			row = -1
		}
		for m, page := range g.Pages {
			a := snap.Lookup(m, ip)
			if row < 0 {
				if a != (geoserve.Answer{IP: ip}) {
					t.Fatalf("mapper %d: %s is in no row but answered %+v", m, geoserve.FormatIPv4(ip), a)
				}
				continue
			}
			var rec [geoserve.RecordSize]byte
			if err := geoserve.PutRecord(rec[:], a); err != nil {
				t.Fatal(err)
			}
			if want := page[row*geoserve.RecordSize:][:geoserve.RecordSize]; a.IP != ip || !bytes.Equal(rec[:], want) {
				t.Fatalf("mapper %d: %s answered %+v (record %x), row %d of group %s holds %x",
					m, geoserve.FormatIPv4(ip), a, rec, row, geoserve.FormatIPv4(g.Base), want)
			}
		}
	}
	for _, p := range snap.Prefixes() {
		probe(p - 1)
		probe(p)
		probe(p + 1)
	}
	for _, ip := range snap.ExactIPs() {
		probe(ip - 1)
		probe(ip)
		probe(ip + 1)
	}
}

// checkRenders pins that what loads, renders: /healthz and /statusz
// carry the snapshot's SnapshotInfo and GET /v1/as/{asn}/footprint its
// present footprints, and encoding/json refuses a NaN or ±Inf only
// after the handler committed its 200.
func checkRenders(t *testing.T, snap *geoserve.Snapshot) {
	t.Helper()
	info := geoserve.SnapshotInfo{Digest: snap.Digest(), Build: snap.Build(), Mappers: snap.Mappers()}
	if _, err := json.Marshal(info); err != nil {
		t.Fatalf("SnapshotInfo does not render: %v", err)
	}
	for _, asn := range snap.Header().ASNs {
		for m := range snap.Mappers() {
			if fp, ok := snap.Footprint(m, int(asn)); ok {
				if _, err := json.Marshal(fp); err != nil {
					t.Fatalf("mapper %d footprint of AS%d does not render: %v", m, asn, err)
				}
			}
		}
	}
}

// forgeScale returns data with the build scale in its header, at
// offset off of the header payload, set to +Inf and the whole-file
// hash resealed: the build header is outside the content digest.
func forgeScale(data []byte, off int) []byte {
	forged := bytes.Clone(data)
	putFloat(forged[sectionPayload(forged, 0)+off:], math.Inf(1))
	reseal(forged)
	return forged
}

// FuzzSnapfileLoad feeds Decode arbitrary mutations of valid snapshot
// files (seed corpus under testdata/fuzz/, plus one valid file with a
// resealed +Inf header scale). Three properties: Decode never panics
// whatever the bytes; a load that succeeds always returns a snapshot
// whose recomputed Digest() equals the file's trailer digest —
// corruption can fail a load but can never smuggle content in under
// the wrong digest — and which serves its own groups (checkLookups);
// and what loads, renders (checkRenders).
func FuzzSnapfileLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*.snap"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed corpus under testdata/fuzz (regenerate with TestWriteFuzzCorpus -update)")
	}
	for i, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(forgeScale(data, 16))
		}
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, info, err := Decode(data)
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned a snapshot alongside its error")
			}
			return
		}
		trailer := hex.EncodeToString(data[len(data)-64 : len(data)-32])
		if snap.Digest() != trailer {
			t.Fatalf("loaded digest %s != trailer %s", snap.Digest(), trailer)
		}
		if info.Digest != snap.Digest() {
			t.Fatalf("FileInfo digest %s != snapshot %s", info.Digest, snap.Digest())
		}
		checkLookups(t, snap)
		checkRenders(t, snap)
	})
}

// fuzzDeltaBase is the snapshot every seed delta under testdata/fuzz
// applies to.
func fuzzDeltaBase(tb testing.TB) *geoserve.Snapshot {
	return buildWorld(tb, 1, worldKeys(8), nil)
}

// FuzzSnapdeltaApply feeds Apply arbitrary mutations of valid deltas
// (seed corpus testdata/fuzz/*.snapdelta), each also with its
// whole-file hash resealed so the mutation reaches the op merge and
// the record checks behind the hash. The properties: Apply never
// panics, every failure is one of the package's typed errors, no
// snapshot comes back beside an error, and a success always hashes to
// the to-digest the delta's trailer names, derives again from nothing
// to the same digest and leaves (the oracle for the leaves and record
// checks Apply took from base), serves its own groups
// (checkLookups) and renders (checkRenders). One seed is a valid delta
// with a resealed +Inf header scale.
func FuzzSnapdeltaApply(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*.snapdelta"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no delta seed corpus under testdata/fuzz (regenerate with TestWriteFuzzCorpus -update)")
	}
	base := fuzzDeltaBase(f)
	for i, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, _, err := Apply(base, data); err != nil {
			f.Fatalf("seed %s no longer applies (regenerate with TestWriteFuzzCorpus -update): %v", path, err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(forgeScale(data, 56))
		}
	}
	f.Add([]byte(deltaMagic))
	f.Add([]byte{})
	typed := []error{ErrMagic, ErrVersion, ErrTruncated, ErrFormat, ErrCorrupt, ErrDeltaBase}
	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := bytes.Clone(data)
		if len(resealed) >= 32 {
			reseal(resealed)
		}
		for _, data := range [][]byte{data, resealed} {
			snap, info, err := Apply(base, data)
			if err != nil {
				if snap != nil {
					t.Fatal("Apply returned a snapshot alongside its error")
				}
				if !slices.ContainsFunc(typed, func(want error) bool { return errors.Is(err, want) }) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			trailer := hex.EncodeToString(data[len(data)-64 : len(data)-32])
			if snap.Digest() != trailer || info.ToDigest != trailer {
				t.Fatalf("applied digest %s, info %s, trailer %s", snap.Digest(), info.ToDigest, trailer)
			}
			scratch, err := geoserve.Derive(nil, snap.Header(), snap.Groups())
			if err != nil {
				t.Fatalf("applied, but its groups fail from nothing: %v", err)
			}
			if scratch.Digest() != snap.Digest() || !slices.Equal(scratch.Leaves(), snap.Leaves()) {
				t.Fatalf("applied digest %.16s, from scratch %.16s (leaves equal: %v)",
					snap.Digest(), scratch.Digest(), slices.Equal(scratch.Leaves(), snap.Leaves()))
			}
			checkLookups(t, snap)
			checkRenders(t, snap)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when run
// with -update (the snapfile package reuses the geoserve golden flag
// convention). The corpus holds small but structurally complete files:
// multiple mappers, footprint gaps, an empty world, and two deltas.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{}
	blob, err := Encode(makeSnapshot(t, 1, 6, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases["valid_small.snap"] = blob
	if blob, err = Encode(makeSnapshot(t, 2, 1, 0), 42); err != nil {
		t.Fatal(err)
	}
	cases["valid_tiny.snap"] = blob
	// Deltas from fuzzDeltaBase: a churned epoch (a tombstone, a put
	// over an existing /24 and one adding a /24) and an unchanged one
	// (no ops).
	base := fuzzDeltaBase(t)
	keys, salts := churnedKeys(worldKeys(8), 1)
	if blob, err = Diff(base, buildWorld(t, 1, keys, salts), 1, 2); err != nil {
		t.Fatal(err)
	}
	cases["valid_churn.snapdelta"] = blob
	if blob, err = Diff(base, base, 1, 2); err != nil {
		t.Fatal(err)
	}
	cases["valid_noop.snapdelta"] = blob
	for name, data := range cases {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(data))
	}
}
