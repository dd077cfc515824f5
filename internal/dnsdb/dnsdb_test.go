package dnsdb

import (
	"math"
	"testing"
	"testing/quick"

	"geonet/internal/geo"
	"geonet/internal/netgen"
	"geonet/internal/population"
	"geonet/internal/rng"
)

func TestLOCRoundTripPoint(t *testing.T) {
	f := func(lat, lon float64) bool {
		p := geo.Pt(math.Mod(math.Abs(lat), 180)-90, math.Mod(math.Abs(lon), 360)-180)
		got := NewLOC(p).Point()
		// Thousandths of an arcsecond resolve ~3 cm; tolerance 1e-6 deg.
		return math.Abs(got.Lat-p.Lat) < 1e-6 && math.Abs(got.Lon-p.Lon) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLOCWireRoundTrip(t *testing.T) {
	f := func(lat, lon float64) bool {
		p := geo.Pt(math.Mod(math.Abs(lat), 180)-90, math.Mod(math.Abs(lon), 360)-180)
		l := NewLOC(p)
		wire := l.Wire()
		back, err := ParseWire(wire[:])
		return err == nil && back == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLOCWireRejectsBadInput(t *testing.T) {
	if _, err := ParseWire([]byte{1, 2, 3}); err == nil {
		t.Error("short RDATA accepted")
	}
	var v1 [16]byte
	v1[0] = 1 // unsupported version
	if _, err := ParseWire(v1[:]); err == nil {
		t.Error("version 1 accepted")
	}
}

func TestDBPTRAndLOC(t *testing.T) {
	d := New()
	d.AddPTR(0x04010203, "gw1.denver.example.net")
	d.AddLOC("gw1.denver.example.net", NewLOC(geo.Pt(39.74, -104.99)))
	name, ok := d.PTR(0x04010203)
	if !ok || name != "gw1.denver.example.net" {
		t.Fatalf("PTR = %q,%v", name, ok)
	}
	if _, ok := d.PTR(0x05050505); ok {
		t.Error("missing PTR resolved")
	}
	l, ok := d.LOCLookup(name)
	if !ok {
		t.Fatal("LOC missing")
	}
	p := l.Point()
	if math.Abs(p.Lat-39.74) > 1e-5 {
		t.Errorf("LOC point = %v", p)
	}
}

func TestFromInternet(t *testing.T) {
	world := population.Build(rng.New(1))
	cfg := netgen.DefaultConfig()
	cfg.Scale = 0.01
	in := netgen.Build(cfg, world)
	d, err := FromInternet(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ptr) == 0 {
		t.Fatal("no PTR records")
	}
	// Every PTR entry matches ground truth.
	matched, locChecked := 0, 0
	for _, ifc := range in.Ifaces {
		if ifc.Hostname == "" {
			continue
		}
		name, ok := d.PTR(ifc.IP)
		if !ok || name != ifc.Hostname {
			t.Fatalf("PTR mismatch for iface %d", ifc.ID)
		}
		matched++
		if l, ok := d.LOCLookup(name); ok {
			locChecked++
			truth := in.Routers[ifc.Router].Loc
			got := l.Point()
			if geo.DistanceMiles(got, truth) > 0.1 {
				t.Fatalf("LOC for %s is %v, truth %v", name, got, truth)
			}
		}
	}
	if matched == 0 || locChecked == 0 {
		t.Errorf("coverage: ptr=%d loc=%d", matched, locChecked)
	}
	// LOC coverage should be a minority (~10% of ASes publish).
	if frac := float64(len(d.loc)) / float64(len(d.ptr)); frac > 0.3 {
		t.Errorf("LOC fraction = %v, want sparse coverage", frac)
	}
}
