package dnsdb

import (
	"fmt"

	"geonet/internal/netgen"
)

// DB is the authoritative record store: PTR records keyed by IPv4
// address and LOC records keyed by owner hostname.
type DB struct {
	ptr map[uint32]string
	loc map[string]LOC
}

// New creates an empty store.
func New() *DB {
	return &DB{ptr: make(map[uint32]string), loc: make(map[string]LOC)}
}

// AddPTR registers a reverse record for an address.
func (d *DB) AddPTR(ip uint32, name string) { d.ptr[ip] = name }

// AddLOC registers a location record for a hostname.
func (d *DB) AddLOC(name string, l LOC) { d.loc[name] = l }

// PTR resolves an address to its hostname.
func (d *DB) PTR(ip uint32) (string, bool) {
	n, ok := d.ptr[ip]
	return n, ok
}

// LOCLookup resolves a hostname to its LOC record.
func (d *DB) LOCLookup(name string) (LOC, bool) {
	l, ok := d.loc[name]
	return l, ok
}

// FromInternet builds the world's DNS from ground truth: every named
// interface gets a PTR record; ASes that publish LOC get a LOC record
// per hostname carrying the router's true coordinates (wire-encoded and
// re-parsed, so the codec is on the real data path).
func FromInternet(in *netgen.Internet) (*DB, error) {
	d := New()
	for _, ifc := range in.Ifaces {
		if ifc.Hostname == "" || ifc.IP == 0 {
			continue
		}
		d.AddPTR(ifc.IP, ifc.Hostname)
		as := in.ASes[in.Routers[ifc.Router].AS]
		if as.PublishesLOC {
			loc := NewLOC(in.Routers[ifc.Router].Loc)
			wire := loc.Wire()
			back, err := ParseWire(wire[:])
			if err != nil {
				return nil, fmt.Errorf("dnsdb: LOC self-check for %s: %v", ifc.Hostname, err)
			}
			d.AddLOC(ifc.Hostname, back)
		}
	}
	return d, nil
}
