package bgp

import (
	"math/rand"
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/population"
	"geonet/internal/rng"
)

func TestTrieBasicLPM(t *testing.T) {
	var tr Trie
	tr.Insert(Route{Addr: 0x0A000000, Len: 8, Origin: 100})  // 10/8
	tr.Insert(Route{Addr: 0x0A010000, Len: 16, Origin: 200}) // 10.1/16
	tr.Insert(Route{Addr: 0x0A010200, Len: 24, Origin: 300}) // 10.1.2/24

	cases := []struct {
		ip   uint32
		want int
	}{
		{0x0A000001, 100}, // 10.0.0.1 -> /8
		{0x0A010001, 200}, // 10.1.0.1 -> /16
		{0x0A010201, 300}, // 10.1.2.1 -> /24
		{0x0A010301, 200}, // 10.1.3.1 -> /16
		{0x0AFF0001, 100}, // 10.255.0.1 -> /8
	}
	for _, c := range cases {
		r, ok := tr.Lookup(c.ip)
		if !ok || r.Origin != c.want {
			t.Errorf("Lookup(%x) = %v,%v want origin %d", c.ip, r.Origin, ok, c.want)
		}
	}
	if _, ok := tr.Lookup(0x0B000001); ok {
		t.Error("lookup outside any prefix should miss")
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie
	tr.Insert(Route{Addr: 0x0A000000, Len: 8, Origin: 1})
	tr.Insert(Route{Addr: 0x0A000000, Len: 8, Origin: 2})
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", tr.Len())
	}
	r, _ := tr.Lookup(0x0A000001)
	if r.Origin != 2 {
		t.Errorf("replaced origin = %d, want 2", r.Origin)
	}
}

func TestTrieHostBitCanonicalisation(t *testing.T) {
	var tr Trie
	// Host bits set in the inserted prefix must be ignored.
	tr.Insert(Route{Addr: 0x0A0101FF, Len: 16, Origin: 5})
	if r, ok := tr.Lookup(0x0A01FFFF); !ok || r.Origin != 5 {
		t.Error("canonicalised prefix did not match")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie
	tr.Insert(Route{Addr: 0, Len: 0, Origin: 7})
	if r, ok := tr.Lookup(0xDEADBEEF); !ok || r.Origin != 7 {
		t.Error("default route must match everything")
	}
}

// naiveLPM is the reference longest-prefix-match implementation for the
// property test.
func naiveLPM(routes []Route, ip uint32) (Route, bool) {
	best := -1
	var out Route
	for _, r := range routes {
		mask := uint32(0)
		if r.Len > 0 {
			mask = ^uint32(0) << (32 - uint(r.Len))
		}
		if ip&mask == r.Addr&mask && r.Len > best {
			best = r.Len
			out = r
		}
	}
	return out, best >= 0
}

func TestTrieMatchesNaiveLPM(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		var tr Trie
		var routes []Route
		seen := map[[2]uint32]bool{}
		for i := 0; i < 200; i++ {
			length := rnd.Intn(25) + 8
			addr := rnd.Uint32() & (^uint32(0) << (32 - uint(length)))
			key := [2]uint32{addr, uint32(length)}
			if seen[key] {
				continue
			}
			seen[key] = true
			r := Route{Addr: addr, Len: length, Origin: i}
			routes = append(routes, r)
			tr.Insert(r)
		}
		for probe := 0; probe < 500; probe++ {
			ip := rnd.Uint32()
			if probe%3 == 0 && len(routes) > 0 {
				// Bias probes into covered space.
				ip = routes[rnd.Intn(len(routes))].Addr | (rnd.Uint32() & 0xffff)
			}
			gr, gok := tr.Lookup(ip)
			nr, nok := naiveLPM(routes, ip)
			if gok != nok {
				t.Fatalf("trial %d ip %x: trie ok=%v naive ok=%v", trial, ip, gok, nok)
			}
			if gok && (gr.Len != nr.Len) {
				t.Fatalf("trial %d ip %x: trie len=%d naive len=%d", trial, ip, gr.Len, nr.Len)
			}
		}
	}
}

func TestTrieWalkOrdered(t *testing.T) {
	var tr Trie
	tr.Insert(Route{Addr: 0x0B000000, Len: 8, Origin: 2})
	tr.Insert(Route{Addr: 0x0A000000, Len: 8, Origin: 1})
	tr.Insert(Route{Addr: 0x0A000000, Len: 16, Origin: 3})
	var got []int
	tr.Walk(func(r Route) { got = append(got, r.Origin) })
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order = %v, want %v", got, want)
		}
	}
}

func TestAssembleAgainstGroundTruth(t *testing.T) {
	world := population.Build(rng.New(1))
	gcfg := netgen.DefaultConfig()
	gcfg.Scale = 0.01
	in := netgen.Build(gcfg, world)

	table := Assemble(in, 0.02, rng.New(2))
	if table.Len() == 0 {
		t.Fatal("empty table")
	}

	correct, wrong, unmapped, total := 0, 0, 0, 0
	for _, ifc := range in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		total++
		truth := in.ASes[in.Routers[ifc.Router].AS].Number
		got, ok := table.OriginAS(ifc.IP)
		switch {
		case !ok:
			unmapped++
		case got == truth:
			correct++
		default:
			wrong++
		}
	}
	if total == 0 {
		t.Fatal("no interfaces to check")
	}
	unmappedFrac := float64(unmapped) / float64(total)
	if unmappedFrac > 0.06 {
		t.Errorf("unmapped fraction = %v, want < 6%% (paper: 1.5-2.8%%)", unmappedFrac)
	}
	wrongFrac := float64(wrong) / float64(total)
	if wrongFrac > 0.01 {
		t.Errorf("wrong-origin fraction = %v, want < 1%%", wrongFrac)
	}
	if float64(correct)/float64(total) < 0.9 {
		t.Errorf("correct fraction = %v, want > 90%%", float64(correct)/float64(total))
	}
}
