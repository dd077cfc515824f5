package dnsdb

import (
	"math"
	"strings"
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

func TestLOCTextKnownExample(t *testing.T) {
	// The RFC's own example style: MIT's LOC for cambridge.
	l := NewLOC(geo.Pt(42.365, -71.105))
	text := l.String()
	if !strings.Contains(text, "N") || !strings.Contains(text, "W") {
		t.Fatalf("text form %q missing hemispheres", text)
	}
	back, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText(%q): %v", text, err)
	}
	got := back.Point()
	if math.Abs(got.Lat-42.365) > 1e-5 || math.Abs(got.Lon+71.105) > 1e-5 {
		t.Errorf("text round trip = %v", got)
	}
}

func TestLOCTextRoundTrip(t *testing.T) {
	f := func(lat, lon float64) bool {
		p := geo.Pt(math.Mod(math.Abs(lat), 180)-90, math.Mod(math.Abs(lon), 360)-180)
		l := NewLOC(p)
		back, err := ParseText(l.String())
		if err != nil {
			return false
		}
		q := back.Point()
		return math.Abs(q.Lat-p.Lat) < 1e-5 && math.Abs(q.Lon-p.Lon) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLOCTextOptionalFields(t *testing.T) {
	// Degrees-and-hemisphere only is legal per the RFC grammar.
	l, err := ParseText("42 N 71 W")
	if err != nil {
		t.Fatalf("minimal form rejected: %v", err)
	}
	p := l.Point()
	if p.Lat != 42 || p.Lon != -71 {
		t.Errorf("minimal form = %v", p)
	}
	// Degrees+minutes, southern/eastern hemisphere, altitude.
	l2, err := ParseText("33 52 S 151 12 E 10m")
	if err != nil {
		t.Fatalf("dm form rejected: %v", err)
	}
	p2 := l2.Point()
	if math.Abs(p2.Lat+33.8667) > 1e-3 || math.Abs(p2.Lon-151.2) > 1e-3 {
		t.Errorf("dm form = %v", p2)
	}
}

func TestLOCTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "42", "42 X 71 W", "42 N", "42 N 71 Q", "x N 71 W",
		"42 N 71 W badalt",
	} {
		if _, err := ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) should fail", bad)
		}
	}
}

func TestPrecRoundTrip(t *testing.T) {
	// Encode a precision string, decode it, re-encode: fixed point.
	for _, in := range []string{"1m", "10m", "100m", "10000m", "0.01m"} {
		enc, err := parsePrec(in)
		if err != nil {
			t.Fatalf("parsePrec(%q): %v", in, err)
		}
		if got := precString(enc); got != in {
			t.Errorf("precision %q round trip = %q", in, got)
		}
	}
	if _, err := parsePrec("xm"); err == nil {
		t.Error("bad precision accepted")
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
	if d.NumPTR() == 0 {
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
	if frac := float64(d.NumLOC()) / float64(d.NumPTR()); frac > 0.3 {
		t.Errorf("LOC fraction = %v, want sparse coverage", frac)
	}
}
