package whois

import (
	"testing"

	"geonet/internal/geo"
	"geonet/internal/netgen"
	"geonet/internal/population"
	"geonet/internal/rng"
)

func buildRegistry(t *testing.T) (*netgen.Internet, *Registry) {
	t.Helper()
	world := population.Build(rng.New(1))
	cfg := netgen.DefaultConfig()
	cfg.Scale = 0.01
	in := netgen.Build(cfg, world)
	return in, FromInternet(in)
}

func TestLookupEveryInterface(t *testing.T) {
	in, reg := buildRegistry(t)
	if len(reg.records) != len(in.ASes) {
		t.Fatalf("records = %d, want %d", len(reg.records), len(in.ASes))
	}
	for _, ifc := range in.Ifaces {
		if ifc.Private || ifc.IP == 0 {
			continue
		}
		rec, ok := reg.Lookup(ifc.IP)
		if !ok {
			t.Fatalf("no whois record for iface %d", ifc.ID)
		}
		truth := in.ASes[in.Routers[ifc.Router].AS]
		if rec.ASNumber != truth.Number {
			t.Fatalf("whois AS = %d, truth %d", rec.ASNumber, truth.Number)
		}
	}
}

func TestLookupReturnsHeadquarters(t *testing.T) {
	in, reg := buildRegistry(t)
	// Find a widely dispersed AS; a whois lookup for any of its
	// addresses must return the HQ city — the paper's documented
	// failure mode for dispersed organisations.
	for _, as := range in.ASes {
		if len(as.Places) < 5 {
			continue
		}
		hq := in.World.Places[as.HomePlace]
		var remoteIface *netgen.Iface
		for _, rid := range as.Routers {
			r := in.Routers[rid]
			if r.Place != as.HomePlace && geo.DistanceMiles(r.Loc, hq.Loc) > 500 {
				for _, ifid := range r.Ifaces {
					if !in.Ifaces[ifid].Private && in.Ifaces[ifid].IP != 0 {
						remoteIface = &in.Ifaces[ifid]
						break
					}
				}
			}
			if remoteIface != nil {
				break
			}
		}
		if remoteIface == nil {
			continue
		}
		rec, ok := reg.Lookup(remoteIface.IP)
		if !ok {
			t.Fatal("lookup failed")
		}
		if rec.City != hq.Name {
			t.Errorf("whois city = %q, want HQ %q", rec.City, hq.Name)
		}
		if geo.DistanceMiles(rec.Loc, hq.Loc) > 1 {
			t.Errorf("whois loc = %v, want HQ %v", rec.Loc, hq.Loc)
		}
		return
	}
	t.Skip("no suitable dispersed AS found")
}

func TestLookupMisses(t *testing.T) {
	_, reg := buildRegistry(t)
	if _, ok := reg.Lookup(0x01000001); ok {
		t.Error("address below all allocations resolved")
	}
	if _, ok := reg.Lookup(0xFF000001); ok {
		t.Error("address above all allocations resolved")
	}
}
