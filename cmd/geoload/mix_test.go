package main

// Table-driven pins for the address-mix generators: the exact first
// draws and the drawn distribution per (mix, seed) pair. The rng
// package's generator is bit-exact across platforms, so these
// constants hold everywhere — a load report with a given -loadseed is
// reproducible address for address.

import (
	"testing"

	"geonet/internal/rng"
)

func testPrefixes() []uint32 {
	out := make([]uint32, 64)
	for i := range out {
		out[i] = 0x0A000000 + uint32(i)*256
	}
	return out
}

func TestParseMix(t *testing.T) {
	for _, name := range []string{"uniform", "zipf", "unmappable"} {
		m, err := parseMix(name)
		if err != nil || m.String() != name {
			t.Errorf("parseMix(%q) = %v, %v", name, m, err)
		}
	}
	for _, bad := range []string{"", "Uniform", "zipf ", "pareto"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) should fail", bad)
		}
	}
}

func TestDrawDistributionPinned(t *testing.T) {
	ps := testPrefixes()
	const n = 20000
	cases := []struct {
		name  string
		mix   mixKind
		seed  int64
		theta float64
		// first pins the first four drawn addresses exactly; p0..p2
		// the number of draws landing in the first three /24s; classE
		// the guaranteed-miss draws.
		first  [4]uint32
		p0, p1 int
		p2     int
		classE int
	}{
		{name: "uniform/seed1", mix: mixUniform, seed: 1,
			first: [4]uint32{0x0a003851, 0x0a001faf, 0x0a0010f0, 0x0a000a37}, p0: 308, p1: 336, p2: 304, classE: 0},
		{name: "uniform/seed2", mix: mixUniform, seed: 2,
			first: [4]uint32{0x0a000f84, 0x0a003606, 0x0a000144, 0x0a0028eb}, p0: 315, p1: 291, p2: 321, classE: 0},
		{name: "zipf1.2/seed1", mix: mixZipf, seed: 1, theta: 1.2,
			first: [4]uint32{0x0a000451, 0x0a0000af, 0x0a0002f0, 0x0a000037}, p0: 5790, p1: 2566, p2: 1567, classE: 0},
		{name: "zipf2.0/seed7", mix: mixZipf, seed: 7, theta: 2.0,
			first: [4]uint32{0x0a000941, 0x0a000316, 0x0a0000ee, 0x0a0000bb}, p0: 12140, p1: 3152, p2: 1378, classE: 0},
		{name: "unmappable/seed1", mix: mixUnmappable, seed: 1,
			first: [4]uint32{0xf0409751, 0x0a002fd0, 0x0a000a37, 0x0a00372b}, p0: 144, p1: 172, p2: 131, classE: 10025},
		{name: "unmappable/seed3", mix: mixUnmappable, seed: 3,
			first: [4]uint32{0xf0564dab, 0xf0bd2315, 0xf0b0d70d, 0x0a001041}, p0: 171, p1: 123, p2: 148, classE: 10047},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := rng.New(c.seed).SplitN("worker", 0)
			draws := draw(c.mix, ps, c.theta, s, n)
			for i, want := range c.first {
				if draws[i] != want {
					t.Errorf("draw[%d] = %#08x, want %#08x", i, draws[i], want)
				}
			}
			counts := map[uint32]int{}
			classE := 0
			for _, ip := range draws {
				if ip >= 0xF0000000 {
					classE++
					continue
				}
				base := ip &^ 0xff
				counts[base]++
				if base < ps[0] || base > ps[len(ps)-1] {
					t.Fatalf("draw %#08x outside the prefix index", ip)
				}
			}
			if got := [4]int{counts[ps[0]], counts[ps[1]], counts[ps[2]], classE}; got != [4]int{c.p0, c.p1, c.p2, c.classE} {
				t.Errorf("distribution %v, want [%d %d %d %d]", got, c.p0, c.p1, c.p2, c.classE)
			}
			// Shape sanity on top of the exact pins.
			switch c.mix {
			case mixZipf:
				if counts[ps[0]] <= counts[ps[1]] || counts[ps[1]] <= counts[ps[2]] {
					t.Errorf("zipf head not rank-skewed: %d, %d, %d", counts[ps[0]], counts[ps[1]], counts[ps[2]])
				}
			case mixUnmappable:
				if classE < n*2/5 || classE > n*3/5 {
					t.Errorf("unmappable fraction %d/%d far from half", classE, n)
				}
			case mixUniform:
				for base, got := range counts {
					if want := n / len(ps); got < want/2 || got > want*2 {
						t.Errorf("uniform count for %#08x = %d, want ~%d", base, got, want)
					}
				}
			}
		})
	}
}

// TestDrawReplayAndWorkerIndependence pins the replay property run()
// relies on: the same (loadseed, worker) split replays the identical
// address sequence, and distinct workers draw distinct sequences.
func TestDrawReplayAndWorkerIndependence(t *testing.T) {
	ps := testPrefixes()
	root := rng.New(1)
	a := draw(mixZipf, ps, 1.2, root.SplitN("worker", 0), 1000)
	b := draw(mixZipf, ps, 1.2, rng.New(1).SplitN("worker", 0), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %#08x != %#08x", i, a[i], b[i])
		}
	}
	c := draw(mixZipf, ps, 1.2, rng.New(1).SplitN("worker", 1), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("worker streams correlate: %d/%d equal draws", same, len(a))
	}
}

// draw returns the first n addresses a worker with the given stream
// would issue — the surface these tests pin.
func draw(mix mixKind, prefixes []uint32, theta float64, s *rng.Stream, n int) []uint32 {
	g := newAddrGen(mix, prefixes, theta, s)
	out := make([]uint32, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
