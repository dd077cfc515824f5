// Package dnsdb is the reproduction's DNS substrate: an authoritative
// store of PTR (reverse) records and RFC 1876 LOC records. IxMapper
// consults both — hostnames for convention-based mapping and LOC
// records for exact coordinates when an operator published them
// ("DNS LOC records, while accurate, are not required and are therefore
// not always available", Section III-B).
//
// The LOC codec implements the RFC 1876 16-octet wire form, which
// FromInternet round-trips every published record through.
package dnsdb

import (
	"encoding/binary"
	"fmt"
	"math"

	"geonet/internal/geo"
)

// LOC is an RFC 1876 location record.
type LOC struct {
	// Version must be 0 per the RFC.
	Version uint8
	// Size, HorizPre, VertPre are RFC 1876 "precision" fields encoded
	// as base/exponent pairs (4 bits each) representing centimetres.
	Size     uint8
	HorizPre uint8
	VertPre  uint8
	// Latitude and Longitude in thousandths of an arcsecond,
	// offset from 2^31 (the equator / prime meridian).
	Latitude  uint32
	Longitude uint32
	// Altitude in centimetres above a base 100,000 m below the
	// WGS 84 reference spheroid.
	Altitude uint32
}

const (
	locEquator   = uint32(1) << 31
	locMasPerDeg = 3600_000 // thousandths of a second per degree
	locAltBase   = 10_000_000
	defaultSize  = 0x12 // 1 m
	defaultHoriz = 0x16 // 10 km
	defaultVert  = 0x13 // 10 m
)

// NewLOC builds a record from a geographic point with the RFC's default
// precision fields.
func NewLOC(p geo.Point) LOC {
	return LOC{
		Size:      defaultSize,
		HorizPre:  defaultHoriz,
		VertPre:   defaultVert,
		Latitude:  uint32(int64(locEquator) + int64(math.Round(p.Lat*locMasPerDeg))),
		Longitude: uint32(int64(locEquator) + int64(math.Round(p.Lon*locMasPerDeg))),
		Altitude:  locAltBase,
	}
}

// Point converts the record back to decimal degrees.
func (l LOC) Point() geo.Point {
	return geo.Point{
		Lat: float64(int64(l.Latitude)-int64(locEquator)) / locMasPerDeg,
		Lon: float64(int64(l.Longitude)-int64(locEquator)) / locMasPerDeg,
	}
}

// Wire encodes the record in the RFC 1876 16-octet RDATA form.
func (l LOC) Wire() [16]byte {
	var b [16]byte
	b[0] = l.Version
	b[1] = l.Size
	b[2] = l.HorizPre
	b[3] = l.VertPre
	binary.BigEndian.PutUint32(b[4:8], l.Latitude)
	binary.BigEndian.PutUint32(b[8:12], l.Longitude)
	binary.BigEndian.PutUint32(b[12:16], l.Altitude)
	return b
}

// ParseWire decodes the 16-octet RDATA form.
func ParseWire(b []byte) (LOC, error) {
	if len(b) != 16 {
		return LOC{}, fmt.Errorf("dnsdb: LOC RDATA must be 16 octets, got %d", len(b))
	}
	l := LOC{
		Version:  b[0],
		Size:     b[1],
		HorizPre: b[2],
		VertPre:  b[3],
	}
	if l.Version != 0 {
		return LOC{}, fmt.Errorf("dnsdb: unsupported LOC version %d", l.Version)
	}
	l.Latitude = binary.BigEndian.Uint32(b[4:8])
	l.Longitude = binary.BigEndian.Uint32(b[8:12])
	l.Altitude = binary.BigEndian.Uint32(b[12:16])
	return l, nil
}
