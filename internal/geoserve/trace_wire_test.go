package geoserve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"geonet/internal/obs"
)

// dialStreamTraced is dialStream with an X-Geo-Trace header, joining
// the stream to an existing trace.
func dialStreamTraced(t *testing.T, url string, mapper uint16, id obs.TraceID) *streamClient {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", url+"/v1/locate/stream",
		io.MultiReader(bytes.NewReader(AppendWireStreamHeader(nil, mapper)), pr))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", WireContentType)
	req.Header.Set(obs.TraceHeader, id.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	rd, err := NewWireReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return &streamClient{w: pw, rd: rd, resp: resp}
}

// TestWireStreamErrFrameCarriesTrace pins the traced error-frame
// extension: a shed chunk on a traced stream answers with an error
// frame quoting the request's trace ID, so the client can name the
// exact request in /debug/tracez. An untraced stream's error frame
// stays the classic 8-byte form (ErrTraceID zero) — byte-identical to
// earlier protocol versions.
func TestWireStreamErrFrameCarriesTrace(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 9, 1, 0)
	c, err := NewCluster(snap, ClusterConfig{Shards: 2, QueueBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	probes := wireProbeIPs(snap)

	pin := func() {
		for _, sh := range c.shards {
			if !sh.tryAcquire(c.budget) {
				t.Fatal("failed to pin shard at budget")
			}
		}
	}
	unpin := func() {
		for _, sh := range c.shards {
			sh.release()
		}
	}

	id := obs.NewTraceID()
	sc := dialStreamTraced(t, srv.URL, 0, id)
	if _, tag := sc.roundTrip(t, probes); tag != snap.wireTag() {
		t.Fatal("traced stream did not serve a healthy chunk")
	}
	pin()
	if _, err := sc.w.Write(AppendWireChunk(nil, probes)); err != nil {
		t.Fatal(err)
	}
	_, _, err = sc.rd.Next(nil)
	unpin()
	if !errors.Is(err, ErrWireOverloaded) {
		t.Fatalf("shed chunk: %v, want ErrWireOverloaded", err)
	}
	if got := sc.rd.ErrTraceID(); got != uint64(id) {
		t.Fatalf("error frame trace %016x, want %016x", got, uint64(id))
	}
	sc.resp.Body.Close()
	sc.w.Close()

	// Untraced control: same shed, classic frame, zero trace.
	sc = dialStream(t, srv.URL, 0)
	if _, tag := sc.roundTrip(t, probes); tag != snap.wireTag() {
		t.Fatal("untraced stream did not serve a healthy chunk")
	}
	pin()
	if _, err := sc.w.Write(AppendWireChunk(nil, probes)); err != nil {
		t.Fatal(err)
	}
	_, _, err = sc.rd.Next(nil)
	unpin()
	if !errors.Is(err, ErrWireOverloaded) {
		t.Fatalf("untraced shed chunk: %v, want ErrWireOverloaded", err)
	}
	if got := sc.rd.ErrTraceID(); got != 0 {
		t.Fatalf("untraced error frame carries trace %016x, want 0", got)
	}
	sc.resp.Body.Close()
	sc.w.Close()
}
