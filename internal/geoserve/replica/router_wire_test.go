package replica

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"geonet/internal/geoserve"
)

// wireIPs is batchIPs(n) as the binary protocol's addresses.
func wireIPs(tb testing.TB, n int) []uint32 {
	tb.Helper()
	var ips []uint32
	for _, s := range batchIPs(n) {
		ip, err := geoserve.ParseIPv4(s)
		if err != nil {
			tb.Fatal(err)
		}
		ips = append(ips, ip)
	}
	return ips
}

func postWireBin(tb testing.TB, client *http.Client, url string, mapper uint16, ips []uint32) (int, []byte) {
	tb.Helper()
	req := geoserve.AppendWireBatchRequest(nil, mapper, ips)
	resp, err := client.Post(url+"/v1/locate/bin", geoserve.WireContentType, bytes.NewReader(req))
	if err != nil {
		tb.Fatalf("POST %s bin: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRouterWireByteIdentity extends the byte-for-byte routing pin to
// the binary endpoint: a /v1/locate/bin batch forwarded through the
// router answers the exact bytes the engine serves directly, for both
// mapper ids and the default-mapper sentinel, and decodes to answers
// matching in-process lookups.
func TestRouterWireByteIdentity(t *testing.T) {
	snap := makeSnapshot(t, 17, 40, 10)
	f := newFleet(t, 3, snap, nil)
	direct := geoserve.NewHandler(geoserve.NewEngine(snap))
	dc, _ := localClient(fleetMux{"direct": direct}, nil)

	ips := wireIPs(t, 24)

	for _, mapper := range []uint16{0, 1, geoserve.WireMapperDefault} {
		rCode, rBody := postWireBin(t, f.client, "http://router", mapper, ips)
		dCode, dBody := postWireBin(t, dc, "http://direct", mapper, ips)
		if rCode != 200 || rCode != dCode || !bytes.Equal(rBody, dBody) {
			t.Fatalf("mapper %d: router (%d, %d bytes) diverges from engine (%d, %d bytes)",
				mapper, rCode, len(rBody), dCode, len(dBody))
		}
		_, _, answers, err := geoserve.DecodeWireBatch(rBody)
		if err != nil {
			t.Fatal(err)
		}
		mi := int(mapper)
		if mapper == geoserve.WireMapperDefault {
			mi = 0
		}
		for i, ip := range ips {
			if want := snap.Lookup(mi, ip); answers[i] != want {
				t.Fatalf("mapper %d ip %s: routed %+v != lookup %+v",
					mapper, geoserve.FormatIPv4(ip), answers[i], want)
			}
		}
	}

	// Error shape passes through too: an unresolvable mapper id is the
	// same 400 body from either path.
	rCode, rBody := postWireBin(t, f.client, "http://router", 9, ips[:2])
	dCode, dBody := postWireBin(t, dc, "http://direct", 9, ips[:2])
	if rCode != http.StatusBadRequest || rCode != dCode || !bytes.Equal(rBody, dBody) {
		t.Fatalf("bad-mapper bin: router (%d) %q vs engine (%d) %q", rCode, rBody, dCode, dBody)
	}
}
