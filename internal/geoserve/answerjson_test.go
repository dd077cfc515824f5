package geoserve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geonet/internal/geo"
	"geonet/internal/geoserve"
)

// locateJSON is the reference form of an answer: the struct
// encoding/json reflected every JSON answer through before the handlers
// appended it themselves. Field order and omitempty rules are the API.
type locateJSON struct {
	IP       string   `json:"ip"`
	Mapper   string   `json:"mapper"`
	Found    bool     `json:"found"`
	Exact    bool     `json:"exact,omitempty"`
	Lat      *float64 `json:"lat,omitempty"`
	Lon      *float64 `json:"lon,omitempty"`
	Method   string   `json:"method,omitempty"`
	ASN      int      `json:"asn,omitempty"`
	RadiusMi float64  `json:"radius_mi,omitempty"`
}

func answerJSON(a geoserve.Answer, mapperName string) locateJSON {
	out := locateJSON{
		IP:       geoserve.FormatIPv4(a.IP),
		Mapper:   mapperName,
		Found:    a.Found,
		Exact:    a.Exact,
		Method:   a.Method,
		ASN:      a.ASN,
		RadiusMi: a.RadiusMi,
	}
	if a.Found {
		lat, lon := a.Loc.Lat, a.Loc.Lon
		out.Lat, out.Lon = &lat, &lon
	}
	return out
}

// TestAnswerJSONMatchesEncodingJSON pins the one JSON writer of an
// answer to encoding/json over the reference struct: every row of the
// fixture under every mapper, a miss, and answers at the edges of
// encoding/json's float rule. A mixed hit/miss batch body must equal
// json.Encoder's output for the batch object.
func TestAnswerJSONMatchesEncodingJSON(t *testing.T) {
	_, snap := fixture(t)
	check := func(a geoserve.Answer, name string) {
		t.Helper()
		want, err := json.Marshal(answerJSON(a, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := geoserve.MarshalAnswerJSON(a, name); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("answer %+v under %q:\n got %s\nwant %s", a, name, got, want)
		}
	}
	probes := append(snap.ExactIPs(), 0xF0000001)
	for _, p := range snap.Prefixes() {
		probes = append(probes, geoserve.GenericHost(snap.ExactIPs(), p))
	}
	for m, name := range snap.Mappers() {
		for _, ip := range probes {
			check(snap.Lookup(m, ip), name)
		}
	}

	found := geoserve.Answer{IP: 0x04000001, Found: true, Method: "feed", Loc: geo.Point{Lat: 12.5, Lon: -71.25}}
	for _, edit := range []func(*geoserve.Answer){
		func(a *geoserve.Answer) { a.Loc.Lat = 5e-7 },
		func(a *geoserve.Answer) { a.Loc.Lat = 1e-6 },
		func(a *geoserve.Answer) { a.Loc.Lat = -1.5e-7 },
		func(a *geoserve.Answer) { a.Loc.Lat = math.Copysign(0, -1) },
		func(a *geoserve.Answer) { a.Loc.Lon = math.SmallestNonzeroFloat64 },
		func(a *geoserve.Answer) { a.Loc.Lon = 1e21 },
		func(a *geoserve.Answer) { a.Loc.Lon = 1e20 },
		func(a *geoserve.Answer) { a.ASN = -7 },
		func(a *geoserve.Answer) { a.ASN, a.RadiusMi = 64512, 0 },
		func(a *geoserve.Answer) { a.RadiusMi = 1234.5678 },
		func(a *geoserve.Answer) { a.Exact = true },
		func(a *geoserve.Answer) { *a = geoserve.Answer{IP: a.IP, ASN: 3, RadiusMi: 9} },
	} {
		a := found
		edit(&a)
		check(a, "edgescape")
	}

	hit, miss := snap.ExactIPs()[0], uint32(0xF0000001)
	prefix := geoserve.GenericHost(snap.ExactIPs(), snap.Prefixes()[0])
	batch := []uint32{hit, miss, prefix, hit}
	var req strings.Builder
	want := struct {
		Mapper  string       `json:"mapper"`
		Results []locateJSON `json:"results"`
	}{Mapper: "edgescape"}
	req.WriteString(`{"mapper":"edgescape","ips":[`)
	for i, ip := range batch {
		if i > 0 {
			req.WriteByte(',')
		}
		req.WriteString(`"` + geoserve.FormatIPv4(ip) + `"`)
		want.Results = append(want.Results, answerJSON(snap.Lookup(1, ip), "edgescape"))
	}
	req.WriteString(`]}`)
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	geoserve.NewHandler(geoserve.NewEngine(snap)).ServeHTTP(w,
		httptest.NewRequest("POST", "/v1/locate/batch", strings.NewReader(req.String())))
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), wantBody.Bytes()) {
		t.Fatalf("batch: status %d\n got %s\nwant %s", w.Code, w.Body, wantBody.Bytes())
	}
}
