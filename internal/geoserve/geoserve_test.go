package geoserve_test

import (
	"encoding/binary"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/core"
	"geonet/internal/geo"
	"geonet/internal/geoloc"
	"geonet/internal/geoserve"
)

var (
	fixOnce sync.Once
	fixPipe *core.Pipeline
	fixSnap *geoserve.Snapshot
)

// fixture builds one test-scale pipeline and its snapshot, shared by
// the whole test package.
func fixture(tb testing.TB) (*core.Pipeline, *geoserve.Snapshot) {
	tb.Helper()
	fixOnce.Do(func() {
		p, err := core.Run(core.TestConfig())
		if err != nil {
			panic(err)
		}
		snap, err := p.Serve()
		if err != nil {
			panic(err)
		}
		fixPipe, fixSnap = p, snap
	})
	return fixPipe, fixSnap
}

// publicIfaceIPs returns every non-private interface address.
func publicIfaceIPs(p *core.Pipeline) []uint32 {
	var out []uint32
	for i := range p.Internet.Ifaces {
		if ifc := &p.Internet.Ifaces[i]; ifc.IP != 0 && !ifc.Private {
			out = append(out, ifc.IP)
		}
	}
	return out
}

// TestLookupMatchesMappers checks the snapshot's exact answers against
// a live mapper resolution for every public interface address, under
// both mappers: location, method, mappability and AS attribution must
// all agree.
func TestLookupMatchesMappers(t *testing.T) {
	p, snap := fixture(t)
	mappers := []geoloc.MethodMapper{p.IxMapper, p.EdgeScape}
	for mi, m := range mappers {
		idx, ok := snap.MapperIndex(m.Name())
		if !ok || idx != mi {
			t.Fatalf("mapper %q not at index %d", m.Name(), mi)
		}
		for _, ip := range publicIfaceIPs(p) {
			a := snap.Lookup(idx, ip)
			loc, method, found := m.LocateMethod(ip)
			if !a.Exact {
				t.Fatalf("%s: interface %v not served exactly", m.Name(), ip)
			}
			if a.Found != found || a.Method != method || (found && a.Loc != loc) {
				t.Fatalf("%s: snapshot answer %+v != live (%v, %q, %v) for ip %v",
					m.Name(), a, loc, method, found, ip)
			}
			wantASN, _ := p.SkitterTable.OriginAS(ip)
			if a.ASN != wantASN {
				t.Fatalf("%s: ASN %d != table %d for ip %v", m.Name(), a.ASN, wantASN, ip)
			}
		}
	}
}

// TestPrefixLevelAnswer checks that a non-interface address inside an
// allocated /24 gets the prefix-level answer, and that it matches what
// the mapper would say live about such a generic host.
func TestPrefixLevelAnswer(t *testing.T) {
	p, snap := fixture(t)
	checked := 0
	for _, base := range snap.Prefixes() {
		// Find a couple of free host addresses in the block.
		var free []uint32
		for off := uint32(0); off < 256 && len(free) < 2; off++ {
			if _, taken := p.Internet.ByIP[base+off]; !taken {
				free = append(free, base+off)
			}
		}
		if len(free) < 2 {
			continue
		}
		for mi, m := range []geoloc.MethodMapper{p.IxMapper, p.EdgeScape} {
			a0 := snap.Lookup(mi, free[0])
			a1 := snap.Lookup(mi, free[1])
			if a0.Exact || a1.Exact {
				t.Fatalf("free address served an exact answer")
			}
			// Prefix-level answers are constant across the /24...
			if a0.Found != a1.Found || a0.Loc != a1.Loc || a0.Method != a1.Method || a0.ASN != a1.ASN {
				t.Fatalf("%s: prefix answers differ within /24 %v: %+v vs %+v", m.Name(), base, a0, a1)
			}
			// ...and match a live resolution of a generic host there
			// (no PTR exists for free addresses, whois and the feed
			// work per-range).
			loc, method, found := m.LocateMethod(free[0])
			if a0.Found != found || a0.Method != method || (found && a0.Loc != loc) {
				t.Fatalf("%s: prefix answer %+v != live (%v, %q, %v)", m.Name(), a0, loc, method, found)
			}
		}
		checked++
		if checked >= 50 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no /24 with free addresses found")
	}
}

// TestUnallocatedAddressMisses checks the miss path: addresses outside
// the allocated space answer not-found with no attribution.
func TestUnallocatedAddressMisses(t *testing.T) {
	_, snap := fixture(t)
	for _, ip := range []uint32{0xF0000001, 0xFFFFFFFE, 1} {
		if _, ok := searchPrefix(snap, ip); ok {
			continue // genuinely allocated; skip
		}
		a := snap.Lookup(0, ip)
		if a.Found || a.Method != "" || a.ASN != 0 || a.Exact {
			t.Fatalf("unallocated %v answered %+v", ip, a)
		}
	}
}

func searchPrefix(snap *geoserve.Snapshot, ip uint32) (int, bool) {
	prefixes := snap.Prefixes()
	for i, p := range prefixes {
		if p == ip&^0xff {
			return i, true
		}
	}
	return 0, false
}

// lookupPath is one way a lookup can end, with an address that takes it.
type lookupPath struct {
	name  string
	ip    uint32
	exact bool // the answer is an exact row
	miss  bool // the answer is the bare miss
}

// lookupPaths finds, on the fixture snapshot, an address for each way
// through the directory: an exact hit (the popcount rank), a
// prefix-level hit, a miss in a /16 nothing occupies and a miss in an
// unallocated /24 of an occupied /16. The benchmark's workloads draw
// all but the prefix hit at most 2 % of the time.
func lookupPaths(t *testing.T, snap *geoserve.Snapshot) []lookupPath {
	t.Helper()
	prefixes, ips := snap.Prefixes(), snap.ExactIPs()
	// has reports whether one of the ascending xs lies in [lo, lo+n).
	has := func(xs []uint32, lo, n uint32) bool {
		i, _ := slices.BinarySearch(xs, lo)
		return i < len(xs) && xs[i]-lo < n
	}
	generic := prefixes[0] + 255
	for has(ips, generic, 1) {
		generic--
	}
	no16 := uint32(0xFFFF0101)
	for has(prefixes, no16&^0xffff, 1<<16) || has(ips, no16&^0xffff, 1<<16) {
		no16 -= 1 << 16
	}
	no24 := uint32(0)
	for _, p := range prefixes {
		if next := p + 256; next>>16 == p>>16 && !has(prefixes, next, 256) && !has(ips, next, 256) {
			no24 = next + 9
			break
		}
	}
	if no24 == 0 {
		t.Fatal("fixture has no unallocated /24 after an allocated one in the same /16")
	}
	paths := []lookupPath{
		{name: "exact hit", ip: ips[len(ips)/2], exact: true},
		{name: "prefix hit", ip: generic},
		{name: "miss, unoccupied /16", ip: no16, miss: true},
		{name: "miss, unallocated /24 of an occupied /16", ip: no24, miss: true},
	}
	for _, path := range paths {
		a := snap.Lookup(0, path.ip)
		if a.Exact != path.exact || (a == geoserve.Answer{IP: path.ip}) != path.miss {
			t.Fatalf("%s: %s answered %+v", path.name, geoserve.FormatIPv4(path.ip), a)
		}
	}
	return paths
}

// TestLookupHitPathZeroAllocs pins the acceptance criterion: every way
// a lookup can end (engine included, metrics recorded) allocates
// nothing.
func TestLookupHitPathZeroAllocs(t *testing.T) {
	_, snap := fixture(t)
	e := geoserve.NewEngine(snap)
	for _, path := range lookupPaths(t, snap) {
		for m := 0; m < 2; m++ {
			if n := testing.AllocsPerRun(1000, func() { e.Lookup(m, path.ip) }); n != 0 {
				t.Errorf("%s: mapper %d lookup allocates %v per op, want 0", path.name, m, n)
			}
		}
		if n := testing.AllocsPerRun(1000, func() {
			idx, _ := e.Snapshot().MapperIndex("edgescape")
			e.Lookup(idx, path.ip)
		}); n != 0 {
			t.Errorf("%s: named lookup allocates %v per op, want 0", path.name, n)
		}
	}
}

// TestCompileDeterministicAcrossWorkers compiles the same pipeline at
// several GOMAXPROCS settings; digests must be identical.
func TestCompileDeterministicAcrossWorkers(t *testing.T) {
	p, snap := fixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		snap2, err := p.Serve()
		if err != nil {
			t.Fatal(err)
		}
		if snap2.Digest() != snap.Digest() {
			t.Fatalf("digest drifts at GOMAXPROCS=%d: %s != %s", procs, snap2.Digest(), snap.Digest())
		}
	}
}

// TestFootprintRadius spot-checks the confidence radius: for a located
// answer with a footprinted AS, RadiusMi must equal the footprint's
// equivalent-circle radius, which in turn matches a fresh
// analysis.Footprints computation.
func TestFootprintRadius(t *testing.T) {
	p, snap := fixture(t)
	fps := analysis.Footprints(p.Dataset("skitter", "ixmapper").ASAggregate())
	byASN := map[int]analysis.ASFootprint{}
	for _, fp := range fps {
		byASN[fp.ASN] = fp
	}
	checked := 0
	for _, ip := range publicIfaceIPs(p) {
		a := snap.Lookup(0, ip)
		if a.ASN == 0 {
			continue
		}
		fp, ok := snap.Footprint(0, a.ASN)
		want, live := byASN[a.ASN]
		if ok != live {
			t.Fatalf("footprint presence mismatch for AS %d", a.ASN)
		}
		if !ok {
			if a.RadiusMi != 0 {
				t.Fatalf("AS %d has no footprint but radius %v", a.ASN, a.RadiusMi)
			}
			continue
		}
		if fp != want {
			t.Fatalf("footprint for AS %d differs from analysis.Footprints", a.ASN)
		}
		if a.RadiusMi != fp.RadiusMi {
			t.Fatalf("answer radius %v != footprint radius %v", a.RadiusMi, fp.RadiusMi)
		}
		checked++
		if checked > 500 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no footprinted answers checked")
	}
}

// TestEngineHotSwap swaps in a freshly compiled identical snapshot and
// checks the engine serves it (same digest, same answers), returning
// the previous one.
func TestEngineHotSwap(t *testing.T) {
	p, snap := fixture(t)
	e := geoserve.NewEngine(snap)
	snap2, err := p.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if old, err := e.Swap(snap2); err != nil || old != snap {
		t.Fatalf("Swap returned %p, %v; want the previous snapshot %p", old, err, snap)
	}
	if e.Snapshot() != snap2 {
		t.Fatal("Swap did not publish the new snapshot")
	}
	ips := publicIfaceIPs(p)
	for _, ip := range ips[:100] {
		if a, b := snap.Lookup(0, ip), e.Lookup(0, ip); a != b {
			t.Fatalf("identical rebuild answers differently: %+v vs %+v", a, b)
		}
	}
	if e.Status().Snapshot.Swaps != 1 {
		t.Fatalf("swap count = %d, want 1", e.Status().Snapshot.Swaps)
	}
}

// TestConcurrentLookupsDuringHotSwap hammers the engine from reader
// goroutines while the main goroutine hot-swaps snapshots; run under
// -race in CI. Every answer must be internally consistent (served
// wholly from one snapshot).
func TestConcurrentLookupsDuringHotSwap(t *testing.T) {
	p, snap := fixture(t)
	snap2, err := p.Serve()
	if err != nil {
		t.Fatal(err)
	}
	e := geoserve.NewEngine(snap)
	ips := publicIfaceIPs(p)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				ip := ips[i%len(ips)]
				a := e.Lookup(i%2, ip)
				if a.IP != ip {
					t.Errorf("answer for wrong ip")
					return
				}
				if _, ok := e.Snapshot().MapperIndex("ixmapper"); !ok {
					t.Errorf("ixmapper vanished")
					return
				}
				i++
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			e.Swap(snap2)
		} else {
			e.Swap(snap)
		}
	}
	close(stop)
	wg.Wait()
	if got := e.Status().Snapshot.Swaps; got != 200 {
		t.Fatalf("swaps = %d, want 200", got)
	}
}

// renamedMapper is a mapper answering under another name.
type renamedMapper struct {
	geoloc.MethodMapper
	name string
}

func (m renamedMapper) Name() string { return m.name }

// TestCompileRejectsBadSource covers the compile error paths: each
// row breaks one part of a valid source, which Compile and a
// CompileDelta from the valid source's snapshot both refuse. A delta
// compile also refuses a source whose mappers are not its
// predecessor's.
func TestCompileRejectsBadSource(t *testing.T) {
	p, prev := fixture(t)
	valid, err := p.ServeSource(core.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := []geoserve.NamedMapper{{Mapper: p.IxMapper}}
	swapped := func(xs []uint32) []uint32 {
		xs = slices.Clone(xs)
		xs[0], xs[1] = xs[1], xs[0]
		return xs
	}
	for _, c := range []struct {
		name string
		edit func(*geoserve.Source)
	}{
		{"empty Prefixes", func(s *geoserve.Source) { s.Prefixes = nil }},
		{"empty IPs", func(s *geoserve.Source) { s.IPs = nil }},
		{"unsorted Prefixes", func(s *geoserve.Source) { s.Prefixes = swapped(s.Prefixes) }},
		{"unsorted IPs", func(s *geoserve.Source) { s.IPs = swapped(s.IPs) }},
		{"duplicate in IPs", func(s *geoserve.Source) { s.IPs = append([]uint32{s.IPs[0]}, s.IPs...) }},
		{"first /24 again at the end", func(s *geoserve.Source) { s.Prefixes = append(slices.Clone(s.Prefixes), s.Prefixes[0]) }},
		{"Prefixes not /24 bases", func(s *geoserve.Source) {
			s.Prefixes = append(slices.Clone(s.Prefixes), s.Prefixes[len(s.Prefixes)-1]+300)
		}},
		{"nil table", func(s *geoserve.Source) { s.Table = nil }},
		{"no mappers", func(s *geoserve.Source) { s.Mappers = nil }},
		{"nil mapper", func(s *geoserve.Source) { s.Mappers = []geoserve.NamedMapper{{}} }},
		{"duplicate mapper", func(s *geoserve.Source) { s.Mappers = append(ix, ix...) }},
		{"mapper name outside [a-z0-9._-]", func(s *geoserve.Source) {
			s.Mappers = []geoserve.NamedMapper{{Mapper: renamedMapper{p.IxMapper, `ix"<m`}}}
		}},
		{"bad footprint ASN", func(s *geoserve.Source) {
			s.Mappers = []geoserve.NamedMapper{{Mapper: p.IxMapper, Footprints: []analysis.ASFootprint{{ASN: -1}}}}
		}},
		{"footprints not ascending by ASN", func(s *geoserve.Source) {
			fps := slices.Clone(s.Mappers[0].Footprints)
			fps[0], fps[1] = fps[1], fps[0]
			s.Mappers = []geoserve.NamedMapper{{Mapper: p.IxMapper, Footprints: fps}}
		}},
		{"footprint radius NaN", func(s *geoserve.Source) {
			fps := slices.Clone(s.Mappers[0].Footprints)
			fps[0].RadiusMi = math.NaN()
			s.Mappers = []geoserve.NamedMapper{{Mapper: p.IxMapper, Footprints: fps}}
		}},
		{"build scale +Inf", func(s *geoserve.Source) { s.Build.Scale = math.Inf(1) }},
	} {
		src := valid
		c.edit(&src)
		if _, err := geoserve.Compile(src); err == nil {
			t.Errorf("%s should fail", c.name)
		}
		if _, _, err := geoserve.CompileDelta(prev, src, nil); err == nil {
			t.Errorf("%s should fail a delta compile", c.name)
		}
	}
	for _, c := range []struct {
		name    string
		mappers []geoserve.NamedMapper
	}{
		{"a renamed mapper", append([]geoserve.NamedMapper{{Mapper: renamedMapper{valid.Mappers[0].Mapper, "renamed"}, Footprints: valid.Mappers[0].Footprints}}, valid.Mappers[1:]...)},
		{"a mapper more", append(slices.Clone(valid.Mappers), geoserve.NamedMapper{Mapper: renamedMapper{valid.Mappers[0].Mapper, "extra"}})},
	} {
		src := valid
		src.Mappers = c.mappers
		if _, err := geoserve.Compile(src); err != nil {
			t.Fatalf("%s: the source should compile from scratch: %v", c.name, err)
		}
		if _, _, err := geoserve.CompileDelta(prev, src, nil); err == nil {
			t.Errorf("%s should fail a delta compile", c.name)
		}
	}
	if _, err := geoserve.Compile(valid); err != nil {
		t.Fatalf("the unedited source should compile: %v", err)
	}
	if next, _, err := geoserve.CompileDelta(prev, valid, nil); err != nil || next.Digest() != prev.Digest() {
		t.Fatalf("the unedited source should delta-compile to its snapshot: %v", err)
	}
}

// TestInterfaceChurnRecomputesItsGroup pins how a delta compile finds
// interface churn with no dirty /24 to name it: one interface address
// inserted at a /24's generic host changes its leaf group's keys, so
// that group is recomputed whole. The result equals Compile's, only
// that group gets new pages, and its /24 is touched.
func TestInterfaceChurnRecomputesItsGroup(t *testing.T) {
	p, prev := fixture(t)
	src, err := p.ServeSource(core.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := src.Prefixes[len(src.Prefixes)/2]
	host := geoserve.GenericHost(src.IPs, base)
	i, _ := slices.BinarySearch(src.IPs, host)
	src.IPs = slices.Insert(slices.Clone(src.IPs), i, host)

	next, st, err := geoserve.CompileDelta(prev, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := geoserve.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if next.Digest() != full.Digest() {
		t.Fatalf("delta-compiled digest %.16s, from scratch %.16s", next.Digest(), full.Digest())
	}
	if !slices.Contains(st.Touched, base) {
		t.Errorf("touched %v lacks %s, whose generic host became an interface", st.Touched, geoserve.FormatIPv4(base))
	}
	group := base &^ (1<<12 - 1)
	for j, shared := range geoserve.SharedPages(prev, next) {
		if b := next.Leaves()[j].Base; shared == (b == group) {
			t.Errorf("group %s shares its predecessor's pages: %v", geoserve.FormatIPv4(b), shared)
		}
	}
}

// TestPutRecordRefusesBadAnswer pins that PutRecord writes no record
// Derive would refuse to load: a place off the globe, a radius not
// finite and ≥ 0, or Found disagreeing with having a method.
func TestPutRecordRefusesBadAnswer(t *testing.T) {
	good := geoserve.Answer{Found: true, Method: "feed", Loc: geo.Pt(-90, 180), RadiusMi: 0}
	var rec [geoserve.RecordSize]byte
	if err := geoserve.PutRecord(rec[:], good); err != nil {
		t.Fatalf("%+v refused: %v", good, err)
	}
	for _, edit := range []func(*geoserve.Answer){
		func(a *geoserve.Answer) { a.Loc.Lat = math.NaN() },
		func(a *geoserve.Answer) { a.Loc.Lat = -90.5 },
		func(a *geoserve.Answer) { a.Loc.Lon = 181 },
		func(a *geoserve.Answer) { a.RadiusMi = -1 },
		func(a *geoserve.Answer) { a.RadiusMi = math.Inf(1) },
		func(a *geoserve.Answer) { a.RadiusMi = math.NaN() },
		func(a *geoserve.Answer) { a.Method = "" },
		func(a *geoserve.Answer) { a.Found = false },
		func(a *geoserve.Answer) { a.Method = "gps" },
	} {
		a := good
		edit(&a)
		if err := geoserve.PutRecord(rec[:], a); err == nil {
			t.Errorf("PutRecord accepted %+v", a)
		}
	}
}

// TestGenericHostMatchesByIPWalk checks the representative address of
// every allocated /24 at test scale against the walk Compile used to
// make: down from .255 through the ground truth's address map, to the
// first address no interface holds (base when .1–.255 all are). Two
// synthetic blocks cover what the test world lacks: every host address
// taken, and a taken .255.
func TestGenericHostMatchesByIPWalk(t *testing.T) {
	p, _ := fixture(t)
	src, err := p.ServeSource(core.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(base uint32) uint32 {
		for off := uint32(255); off > 0; off-- {
			if _, taken := p.Internet.ByIP[base+off]; !taken {
				return base + off
			}
		}
		return base
	}
	for _, base := range src.Prefixes {
		if got, want := geoserve.GenericHost(src.IPs, base), oracle(base); got != want {
			t.Fatalf("/24 %s: generic host %s, ByIP walk %s", geoserve.FormatIPv4(base),
				geoserve.FormatIPv4(got), geoserve.FormatIPv4(want))
		}
	}

	const base = 4<<24 | 7<<8
	var full []uint32
	for off := uint32(1); off < 256; off++ {
		full = append(full, base+off)
	}
	for _, c := range []struct {
		name string
		ips  []uint32
		want uint32
	}{
		{"every host taken", full, base},
		{"every address taken", append([]uint32{base}, full...), base},
		{"every host but .1 taken", full[1:], base + 1},
		{".255 taken", []uint32{base - 1, base + 255, base + 256}, base + 254},
		{".253 to .255 taken", []uint32{base + 10, base + 253, base + 254, base + 255}, base + 252},
		{"nothing taken", []uint32{base - 1, base + 256}, base + 255},
		{"no addresses", nil, base + 255},
	} {
		if got := geoserve.GenericHost(c.ips, base); got != c.want {
			t.Errorf("%s: generic host %s, want %s", c.name, geoserve.FormatIPv4(got), geoserve.FormatIPv4(c.want))
		}
	}
}

// TestParseFormatIPv4 round-trips addresses and rejects junk.
func TestParseFormatIPv4(t *testing.T) {
	for _, ip := range []uint32{0, 1, 0x01020304, 0xC0A80001, 0xFFFFFFFF} {
		s := geoserve.FormatIPv4(ip)
		got, err := geoserve.ParseIPv4(s)
		if err != nil || got != ip {
			t.Errorf("round trip %v -> %q -> %v, %v", ip, s, got, err)
		}
	}
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.4 ", "01112.1.1.1"} {
		if _, err := geoserve.ParseIPv4(s); err == nil {
			t.Errorf("ParseIPv4(%q) should fail", s)
		}
	}
}

// FuzzParseIPv4 holds ParseIPv4 to net/netip: it accepts exactly the
// strings netip.ParseAddr reads as a plain IPv4 address, leading-zero
// octets refused, and yields the same value. The seeds run in plain
// go test.
func FuzzParseIPv4(f *testing.F) {
	for _, s := range []string{"01.2.3.4", "0.0.0.0", "255.255.255.255", "::ffff:1.2.3.4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := geoserve.ParseIPv4(s)
		want, werr := netip.ParseAddr(s)
		if ok := werr == nil && want.Is4(); ok != (err == nil) {
			t.Fatalf("ParseIPv4(%q) = %v, %v; netip: %v, %v", s, got, err, want, werr)
		} else if ok && got != binary.BigEndian.Uint32(want.AsSlice()) {
			t.Fatalf("ParseIPv4(%q) = %s, netip reads %v", s, geoserve.FormatIPv4(got), want)
		}
	})
}
