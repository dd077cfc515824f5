package geoserve

// Internal wire-protocol tests over synthetic snapshots: framing
// round-trips, typed decode errors, engine/cluster byte-identity of
// binary answers, the HTTP boundary of /v1/locate/bin, and the
// streaming path (full duplex, epoch tags across a mid-stream swap,
// in-band error frames). These reach the unexported encode/parse
// machinery directly, so they run in microseconds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// AppendWireStreamHeader encodes the opening header of a
// /v1/locate/stream request; follow it with AppendWireChunk calls and
// a final AppendWireStreamEnd. The stream encoders live here because
// the stream route's tests are their only callers.
func AppendWireStreamHeader(dst []byte, mapper uint16) []byte {
	return appendWireHeader(dst, wireKindStreamReq, mapper)
}

// AppendWireChunk encodes one address chunk of a stream request.
func AppendWireChunk(dst []byte, ips []uint32) []byte {
	return appendWireChunkBody(dst, ips)
}

// AppendWireStreamEnd encodes the zero-count chunk that cleanly
// terminates a stream request.
func AppendWireStreamEnd(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, 0)
}

func wireProbeIPs(s *Snapshot) []uint32 {
	return probeAddrs(s)
}

func TestWireRequestRoundTrip(t *testing.T) {
	ips := []uint32{0, 1, 0x0A0B0C0D, 0xFFFFFFFF}
	req := AppendWireBatchRequest(nil, 3, ips)
	mapper, got, err := parseWireBatchRequest(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mapper != 3 {
		t.Fatalf("mapper %d, want 3", mapper)
	}
	if len(got) != len(ips) {
		t.Fatalf("%d addresses, want %d", len(got), len(ips))
	}
	for i := range ips {
		if got[i] != ips[i] {
			t.Fatalf("address %d: %d != %d", i, got[i], ips[i])
		}
	}
}

func TestWireParseTypedErrors(t *testing.T) {
	valid := AppendWireBatchRequest(nil, 0, []uint32{1, 2, 3})
	badMagic := bytes.Clone(valid)
	copy(badMagic, "nope")
	badVersion := bytes.Clone(valid)
	badVersion[4] = 99
	badKind := bytes.Clone(valid)
	badKind[5] = 77
	streamKind := bytes.Clone(valid)
	streamKind[5] = wireKindStreamReq
	short := valid[:len(valid)-2]
	empty := AppendWireBatchRequest(nil, 0, nil)
	huge := bytes.Clone(valid)
	huge[wireHeaderSize] = 0xFF
	huge[wireHeaderSize+1] = 0xFF
	huge[wireHeaderSize+2] = 0xFF

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty input", nil, ErrWireFormat},
		{"bad magic", badMagic, ErrWireMagic},
		{"bad version", badVersion, ErrWireVersion},
		{"unknown kind", badKind, ErrWireFormat},
		{"stream kind on batch parse", streamKind, ErrWireFormat},
		{"truncated addresses", short, ErrWireFormat},
		{"empty batch", empty, ErrWireFormat},
		{"oversized count", huge, ErrWireFormat},
	}
	for _, tc := range cases {
		if _, _, err := parseWireBatchRequest(tc.in, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestWireDecodeTypedErrors(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 9, 2, 0)
	e := NewEngine(snap)
	resp := engineWireResponse(t, e, 1, []uint32{snap.Prefixes()[0] + 5})

	truncHeader := resp[:wireHeaderSize-1]
	truncFrame := resp[:wireHeaderSize+2]
	truncAnswers := resp[:len(resp)-7]
	trailing := append(bytes.Clone(resp), 0xAA)
	badFlags := bytes.Clone(resp)
	badFlags[wireHeaderSize+12+4+recOffFlags] = 0xF0
	badMethod := bytes.Clone(resp)
	badMethod[wireHeaderSize+12+4+recOffMethod] = 0xEE
	badReserved := bytes.Clone(resp)
	badReserved[wireHeaderSize+12+4+recOffMethod+1] = 1
	reqNotResp := AppendWireBatchRequest(nil, 0, []uint32{1})

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"truncated header", truncHeader, ErrWireFormat},
		{"truncated frame prefix", truncFrame, ErrWireFormat},
		{"truncated answers", truncAnswers, ErrWireFormat},
		{"trailing bytes", trailing, ErrWireFormat},
		{"unknown flags", badFlags, ErrWireFormat},
		{"method code out of range", badMethod, ErrWireFormat},
		{"nonzero reserved bytes", badReserved, ErrWireFormat},
		{"request where response expected", reqNotResp, ErrWireFormat},
	}
	for _, tc := range cases {
		if _, _, _, err := DecodeWireBatch(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, _, _, err := DecodeWireBatch(resp); err != nil {
		t.Fatalf("pristine response failed to decode: %v", err)
	}
}

// engineWireResponse drives POST /v1/locate/bin through the full HTTP
// handler and returns the response body.
func engineWireResponse(t *testing.T, e *Cluster, mapper uint16, ips []uint32) []byte {
	t.Helper()
	return handlerWireResponse(t, NewHandler(e), mapper, ips)
}

func handlerWireResponse(t *testing.T, h http.Handler, mapper uint16, ips []uint32) []byte {
	t.Helper()
	req := AppendWireBatchRequest(nil, mapper, ips)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin", bytes.NewReader(req)))
	if w.Code != http.StatusOK {
		t.Fatalf("bin status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != WireContentType {
		t.Fatalf("bin Content-Type %q", ct)
	}
	return w.Body.Bytes()
}

// TestWireAnswersMatchLookup pins that a decoded wire answer equals
// the in-process Lookup answer for every probe, on every mapper.
func TestWireAnswersMatchLookup(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	e := NewEngine(snap)
	probes := wireProbeIPs(snap)
	for m := 0; m < len(snap.mappers); m++ {
		mapper, tag, answers, err := DecodeWireBatch(engineWireResponse(t, e, uint16(m), probes))
		if err != nil {
			t.Fatal(err)
		}
		if int(mapper) != m {
			t.Fatalf("echoed mapper %d, want %d", mapper, m)
		}
		if tag != snap.wireTag() {
			t.Fatalf("tag %016x, want %016x", tag, snap.wireTag())
		}
		if len(answers) != len(probes) {
			t.Fatalf("%d answers for %d probes", len(answers), len(probes))
		}
		for i, ip := range probes {
			if want := snap.Lookup(m, ip); answers[i] != want {
				t.Fatalf("mapper %d ip %s: wire %+v != lookup %+v", m, FormatIPv4(ip), answers[i], want)
			}
		}
	}
}

// TestWireDefaultMapper pins WireMapperDefault resolving to mapper 0
// and the response echoing the resolved index.
func TestWireDefaultMapper(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 9, 2, 0)
	e := NewEngine(snap)
	probes := []uint32{snap.Prefixes()[0] + 7}
	def := engineWireResponse(t, e, WireMapperDefault, probes)
	zero := engineWireResponse(t, e, 0, probes)
	if !bytes.Equal(def, zero) {
		t.Fatal("WireMapperDefault response differs from mapper 0's")
	}
	mapper, _, _, err := DecodeWireBatch(def)
	if err != nil || mapper != 0 {
		t.Fatalf("mapper %d err %v, want 0 <nil>", mapper, err)
	}
}

// TestWireEngineClusterByteIdentity pins the acceptance property at
// the core: the /v1/locate/bin response over a cluster is byte-
// identical to the unsharded engine's at several shard counts, and
// across a hot-swap to an identical rebuild.
func TestWireEngineClusterByteIdentity(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 23, 2, 0)
	e := NewEngine(snap)
	probes := wireProbeIPs(snap)
	want := engineWireResponse(t, e, 0, probes)

	for _, shards := range []int{1, 2, 3, 8} {
		c, err := NewCluster(syntheticSnapshot(10<<24, 23, 2, 0), ClusterConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		got := handlerWireResponse(t, NewHandler(c), 0, probes)
		if !bytes.Equal(got, want) {
			t.Fatalf("cluster(%d shards) wire response differs from engine's", shards)
		}
		// Hot-swap to an identical rebuild: bytes must not move.
		if _, err := c.Swap(syntheticSnapshot(10<<24, 23, 2, 0)); err != nil {
			t.Fatal(err)
		}
		after := handlerWireResponse(t, NewHandler(c), 0, probes)
		if !bytes.Equal(after, want) {
			t.Fatalf("cluster(%d shards) wire response drifted across hot-swap", shards)
		}
	}
}

func TestWireBinHTTPErrors(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 9, 2, 0)
	h := NewHandler(NewEngine(snap))
	post := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin", bytes.NewReader(body)))
		return w
	}

	if w := post([]byte("garbage")); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", w.Code)
	}
	if w := post(AppendWireBatchRequest(nil, 9, []uint32{1})); w.Code != http.StatusBadRequest {
		t.Fatalf("unresolvable mapper id: %d, want 400", w.Code)
	}
	big := AppendWireBatchRequest(nil, 0, make([]uint32, MaxBatch))
	big = append(big, make([]byte, 64)...) // push past the exact maximal size
	if w := post(big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", w.Code)
	}
}

// TestWireBinOverloaded pins the 429 mapping: a cluster whose shards
// are pinned at budget sheds the binary batch whole.
func TestWireBinOverloaded(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 9, 1, 0)
	c, err := NewCluster(snap, ClusterConfig{Shards: 2, QueueBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		if !sh.tryAcquire(c.budget) {
			t.Fatal("failed to pin shard at budget")
		}
	}
	req := AppendWireBatchRequest(nil, 0, wireProbeIPs(snap))
	w := httptest.NewRecorder()
	NewHandler(c).ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin", bytes.NewReader(req)))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
}

// streamClient is a ping-pong client over a real connection: write one
// chunk, read one frame.
type streamClient struct {
	w    io.WriteCloser
	rd   *WireReader
	resp *http.Response
}

func dialStream(t *testing.T, url string, mapper uint16) *streamClient {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", url+"/v1/locate/stream",
		io.MultiReader(bytes.NewReader(AppendWireStreamHeader(nil, mapper)), pr))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", WireContentType)
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

func (sc *streamClient) roundTrip(t *testing.T, ips []uint32) ([]Answer, uint64) {
	t.Helper()
	if _, err := sc.w.Write(AppendWireChunk(nil, ips)); err != nil {
		t.Fatal(err)
	}
	answers, tag, err := sc.rd.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	return answers, tag
}

func (sc *streamClient) close(t *testing.T) {
	t.Helper()
	if _, err := sc.w.Write(AppendWireStreamEnd(nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.rd.Next(nil); err != io.EOF {
		t.Fatalf("after terminator: %v, want io.EOF", err)
	}
	sc.w.Close()
	sc.resp.Body.Close()
}

// TestWireStream drives the streaming path over a real HTTP server:
// ping-pong chunks, answers matching Lookup, the epoch tag flipping
// when the engine hot-swaps mid-stream (and never inside a frame), and
// a clean terminator echo.
func TestWireStream(t *testing.T) {
	snap1 := syntheticSnapshot(10<<24, 23, 2, 0)
	snap2 := syntheticSnapshot(10<<24, 23, 2, 1.5) // different content
	e := NewEngine(snap1)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	sc := dialStream(t, srv.URL, 1)
	probes := wireProbeIPs(snap1)

	answers, tag := sc.roundTrip(t, probes)
	if tag != snap1.wireTag() {
		t.Fatalf("tag %016x, want %016x", tag, snap1.wireTag())
	}
	for i, ip := range probes {
		if want := snap1.Lookup(1, ip); answers[i] != want {
			t.Fatalf("ip %s: stream %+v != lookup %+v", FormatIPv4(ip), answers[i], want)
		}
	}

	// Hot-swap between chunks: the next frame is wholly the new epoch.
	e.Swap(snap2)
	answers, tag = sc.roundTrip(t, probes)
	if tag != snap2.wireTag() {
		t.Fatalf("post-swap tag %016x, want %016x", tag, snap2.wireTag())
	}
	for i, ip := range probes {
		if want := snap2.Lookup(1, ip); answers[i] != want {
			t.Fatalf("post-swap ip %s: stream %+v != lookup %+v", FormatIPv4(ip), answers[i], want)
		}
	}
	sc.close(t)
}

// TestWireStreamOverloaded pins the in-band error frame: a chunk shed
// at shard budget ends the stream with ErrWireOverloaded.
func TestWireStreamOverloaded(t *testing.T) {
	snap := syntheticSnapshot(10<<24, 9, 1, 0)
	c, err := NewCluster(snap, ClusterConfig{Shards: 2, QueueBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	sc := dialStream(t, srv.URL, 0)
	probes := wireProbeIPs(snap)
	if _, tag := sc.roundTrip(t, probes); tag != snap.wireTag() {
		t.Fatalf("healthy chunk got tag %016x", tag)
	}
	for _, sh := range c.shards {
		sh.tryAcquire(c.budget)
	}
	if _, err := sc.w.Write(AppendWireChunk(nil, probes)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.rd.Next(nil); !errors.Is(err, ErrWireOverloaded) {
		t.Fatalf("err %v, want ErrWireOverloaded", err)
	}
	sc.w.Close()
	sc.resp.Body.Close()
}

// TestWireStreamSwapRace races concurrent streams against engine
// hot-swaps; under -race this proves the streaming path shares no
// mutable state across goroutines. Every frame must carry one of the
// two live epochs' tags.
func TestWireStreamSwapRace(t *testing.T) {
	snapA := syntheticSnapshot(10<<24, 23, 2, 0)
	snapB := syntheticSnapshot(10<<24, 23, 2, 2.5)
	e := NewEngine(snapA)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	tagA, tagB := snapA.wireTag(), snapB.wireTag()
	probes := wireProbeIPs(snapA)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if flip {
				e.Swap(snapA)
			} else {
				e.Swap(snapB)
			}
			flip = !flip
		}
	}()

	var clients sync.WaitGroup
	errc := make(chan error, 4)
	for k := 0; k < 4; k++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			sc := dialStream(t, srv.URL, 0)
			for round := 0; round < 30; round++ {
				if _, err := sc.w.Write(AppendWireChunk(nil, probes)); err != nil {
					errc <- err
					return
				}
				_, tag, err := sc.rd.Next(nil)
				if err != nil {
					errc <- err
					return
				}
				if tag != tagA && tag != tagB {
					errc <- fmt.Errorf("frame tagged %016x, want %016x or %016x", tag, tagA, tagB)
					return
				}
			}
			sc.w.Write(AppendWireStreamEnd(nil))
			sc.w.Close()
			sc.resp.Body.Close()
		}()
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
