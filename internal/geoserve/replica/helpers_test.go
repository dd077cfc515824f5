package replica

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"geonet/internal/analysis"
	"geonet/internal/faultinject"
	"geonet/internal/geo"
	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

// makeSnapshot assembles a small synthetic snapshot through
// geoserve.Derive so fleet tests need no pipeline run. Content is
// deterministic in (seed, nPrefixes, nASNs).
func makeSnapshot(tb testing.TB, seed int64, nPrefixes, nASNs int) *geoserve.Snapshot {
	tb.Helper()
	r := rng.New(seed)
	h := geoserve.Header{
		Build:   geoserve.BuildInfo{Seed: seed, Scale: 0.5, Label: "synthetic"},
		Mappers: []string{"alpha", "beta"},
	}
	// The /24s run up from 10.0.0.0, sixteen to a /20 leaf group, each
	// with two exact addresses.
	var gs []geoserve.Group
	for i := 0; i < nPrefixes; i++ {
		p := uint32(10<<24) + uint32(i)<<8
		if i%16 == 0 {
			gs = append(gs, geoserve.Group{Base: p})
		}
		g := &gs[i/16]
		g.Prefixes, g.IPs = append(g.Prefixes, p), append(g.IPs, p+1, p+2)
	}
	for i := 0; i < nASNs; i++ {
		h.ASNs = append(h.ASNs, int32(100+i))
	}
	methods := []string{"feed", "hostname", "loc", "whois"}
	for m := 0; m < len(h.Mappers); m++ {
		for i := range gs {
			gs[i].Pages = append(gs[i].Pages, make([]byte, 3*len(gs[i].Prefixes)*geoserve.RecordSize))
		}
		// A mapper draws every prefix row, then every exact row.
		for row := 0; row < 3*nPrefixes; row++ {
			a := geoserve.Answer{Exact: row >= nPrefixes}
			gi, at := row/16, row%16
			if j := row - nPrefixes; a.Exact {
				gi, at = j/32, len(gs[j/32].Prefixes)+j%32
			}
			if nASNs > 0 {
				a.ASN = int(h.ASNs[r.Intn(nASNs)])
			}
			if r.Bool(0.8) {
				a.Found = true
				a.Method = methods[r.Intn(4)]
				a.Loc.Lat = r.Float64()*180 - 90
				a.Loc.Lon = r.Float64()*360 - 180
				a.RadiusMi = r.Float64() * 500
			}
			if err := geoserve.PutRecord(gs[gi].Pages[m][at*geoserve.RecordSize:], a); err != nil {
				tb.Fatal(err)
			}
		}
		fps := make([]analysis.ASFootprint, nASNs)
		for i := range fps {
			if r.Bool(0.7) {
				fps[i] = analysis.ASFootprint{
					ASN:        int(h.ASNs[i]),
					Interfaces: 1 + r.Intn(50),
					Locations:  1 + r.Intn(10),
					Degree:     r.Intn(20),
					Centroid:   geo.Pt(r.Float64()*180-90, r.Float64()*360-180),
					AreaSqMi:   r.Float64() * 1e6,
					RadiusMi:   r.Float64() * 500,
				}
			}
		}
		h.Footprints = append(h.Footprints, fps)
	}
	snap, err := geoserve.Derive(nil, h, gs)
	if err != nil {
		tb.Fatalf("Derive: %v", err)
	}
	return snap
}

// fleetMux routes in-memory requests by URL host, so a whole
// builder/replica/router fleet shares one faultinject.Local transport.
type fleetMux map[string]http.Handler

func (f fleetMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.URL.Host
	if host == "" {
		host = r.Host
	}
	h, ok := f[host]
	if !ok {
		http.Error(w, "no such host "+host, http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// localClient wires a client through an in-memory fault-injecting
// transport over the fleet mux.
func localClient(f fleetMux, decide faultinject.Decider) (*http.Client, *faultinject.Transport) {
	tr := faultinject.New(faultinject.Local{Handler: f}, decide)
	return &http.Client{Transport: tr}, tr
}

// get fetches a URL through the client and returns status + body.
func get(tb testing.TB, client *http.Client, url string) (int, string) {
	tb.Helper()
	return do(tb, client, "GET", url, "")
}

// do sends one request with the given body and returns status + body.
func do(tb testing.TB, client *http.Client, method, url, body string) (int, string) {
	tb.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		tb.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("%s %s: read: %v", method, url, err)
	}
	return resp.StatusCode, string(b)
}
