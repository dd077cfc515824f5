package core

import (
	"slices"
	"testing"

	"geonet/internal/netgen"
	"geonet/internal/rng"
)

// TestRadixSortMatchesSort pins the index sort to slices.Sort: random
// inputs with duplicates, inputs sharing all but one byte (the skipped
// passes), and the short and sorted edge cases.
func TestRadixSortMatchesSort(t *testing.T) {
	r := rng.New(3)
	inputs := [][]uint32{nil, {7}, {2, 1}, {1, 2, 3}}
	for _, n := range []int{10, 1000, 70000} {
		random, narrow := make([]uint32, n), make([]uint32, n)
		for i := range random {
			random[i] = uint32(r.Int63())
			narrow[i] = 10<<24 | uint32(r.Intn(256))<<8
		}
		inputs = append(inputs, random, narrow, random[:n/2:n/2])
	}
	for _, in := range inputs {
		got, want := slices.Clone(in), slices.Clone(in)
		radixSort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("radix sort of %d values differs from slices.Sort", len(in))
		}
	}
}

// TestServeAddrsChecksPrivateSpace pins the check that makes the served
// sets exact: a private address outside the allocated /24s is left out
// of IPs, and one inside them is an error, because the /24's generic
// host would then be chosen without it.
func TestServeAddrsChecksPrivateSpace(t *testing.T) {
	world := func(private uint32) *netgen.Internet {
		in := &netgen.Internet{
			ASes: []netgen.AS{
				{Number: 1, Prefixes: []netgen.Prefix{{Addr: 4<<24 | 1<<8, Len: 24}}},
				{Number: 2, Prefixes: []netgen.Prefix{{Addr: 4 << 24, Len: 24}}},
			},
			Ifaces: []netgen.Iface{
				{ID: 0, IP: 4<<24 | 1<<8 | 9},
				{ID: 1, IP: 4<<24 | 3},
				{ID: 2, IP: private, Private: true},
				{ID: 3}, // no address
			},
			ByIP: map[uint32]netgen.IfaceID{},
		}
		for _, ifc := range in.Ifaces {
			if ifc.IP != 0 {
				in.ByIP[ifc.IP] = ifc.ID
			}
		}
		return in
	}
	prefixes, ips, err := serveAddrs(world(10<<24 | 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{4 << 24, 4<<24 | 1<<8}; !slices.Equal(prefixes, want) {
		t.Errorf("prefixes %v, want %v", prefixes, want)
	}
	if want := []uint32{4<<24 | 3, 4<<24 | 1<<8 | 9}; !slices.Equal(ips, want) {
		t.Errorf("ips %v, want %v", ips, want)
	}
	if _, _, err := serveAddrs(world(4<<24 | 200)); err == nil {
		t.Error("a private address inside an allocated /24 should fail")
	}
}
