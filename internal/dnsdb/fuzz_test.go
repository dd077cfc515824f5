package dnsdb

import (
	"testing"

	"geonet/internal/geo"
)

// FuzzParseWire drives the 16-octet RDATA decoder: arbitrary bytes
// must never panic, and accepted records must re-encode to the exact
// input bytes (every field is captured).
func FuzzParseWire(f *testing.F) {
	w := NewLOC(geo.Pt(35.68, 139.69)).Wire()
	f.Add(w[:])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(make([]byte, 15))
	f.Add(make([]byte, 16))
	f.Add(make([]byte, 17))
	bad := make([]byte, 16)
	bad[0] = 1 // unsupported version
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ParseWire(data)
		if err != nil {
			return
		}
		enc := l.Wire()
		if len(data) != 16 {
			t.Fatalf("accepted %d-octet RDATA", len(data))
		}
		for i := range enc {
			if enc[i] != data[i] {
				t.Fatalf("re-encode differs at octet %d: % x vs % x", i, enc, data)
			}
		}
	})
}
