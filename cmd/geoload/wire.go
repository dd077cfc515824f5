package main

// The three request encodings geoload drives (-wire): json issues one
// GET /v1/locate per address; bin posts one length-prefixed batch per
// round trip to /v1/locate/bin; stream holds a full-duplex
// /v1/locate/stream session per connection and ping-pongs address
// chunks against answer frames. The binary ones decode with the shared
// geoserve wire reader and reuse request/response scratch through
// pools, so the generator itself stays allocation-quiet and the
// measured rate is the server's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geonet/internal/geoserve"
)

// target answers one round trip of lookups against one base URL.
type target interface {
	lookup(ips []uint32) (reply, error)
}

// reply is what the loop reads off one round trip, failed or not.
type reply struct {
	// found counts the addresses that had an answer.
	found int
	// epoch is the X-Geo-Epoch header of the reply ("" when absent — a
	// plain geoserved rather than a replica or router); a stream has
	// one header for many frames, so there it is the frame's epoch tag.
	epoch string
	// retryAfter is how long a 429/503 asked the client to back off.
	retryAfter time.Duration
}

// newTarget builds the -wire implementation for one base URL. mapperID
// is the mapper's wire id; the JSON route takes the name.
func newTarget(wire string, client *http.Client, base, mapper string, mapperID uint16) target {
	switch wire {
	case "bin":
		t := &binTarget{client: client, base: base, mapper: mapperID}
		t.pool.New = func() any { return &binScratch{} }
		return t
	case "stream":
		return &streamTarget{client: client, base: base, mapper: mapperID}
	}
	return &jsonTarget{client: client, base: base, mapper: mapper}
}

// maxRetryAfter caps how long a worker honors a Retry-After hint, so a
// misconfigured server can't park the whole run.
const maxRetryAfter = 2 * time.Second

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delay-seconds or an HTTP-date — against the given current time,
// capped at maxRetryAfter. Zero means no usable hint (absent,
// malformed, or already in the past).
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		if d = at.Sub(now); d <= 0 {
			return 0
		}
	} else {
		return 0
	}
	return min(d, maxRetryAfter)
}

// refused turns a non-200 reply into an error, noting in rep the
// back-off a 429/503 asked for.
func refused(resp *http.Response, rep *reply) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		rep.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	}
	return fmt.Errorf("status %d", resp.StatusCode)
}

// drain reads a reply to its end so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// countFound checks a frame answered every address and counts the hits.
func countFound(answers []geoserve.Answer, want int) (int, error) {
	if len(answers) != want {
		return 0, fmt.Errorf("%d answers for %d addresses", len(answers), want)
	}
	found := 0
	for i := range answers {
		if answers[i].Found {
			found++
		}
	}
	return found, nil
}

// jsonTarget drives GET /v1/locate: one request per address.
type jsonTarget struct {
	client *http.Client
	base   string
	mapper string
}

func (t *jsonTarget) lookup(ips []uint32) (reply, error) {
	var rep reply
	for _, ip := range ips {
		found, err := t.get(ip, &rep)
		if err != nil {
			return rep, err
		}
		if found {
			rep.found++
		}
	}
	return rep, nil
}

func (t *jsonTarget) get(ip uint32, rep *reply) (bool, error) {
	resp, err := t.client.Get(t.base + "/v1/locate?ip=" + geoserve.FormatIPv4(ip) + "&mapper=" + t.mapper)
	if err != nil {
		return false, err
	}
	defer drain(resp)
	rep.epoch = resp.Header.Get("X-Geo-Epoch")
	if err := refused(resp, rep); err != nil {
		return false, err
	}
	var body struct {
		Found bool `json:"found"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Found, err
}

// binScratch is one worker's reusable request/answer buffers.
type binScratch struct {
	req     []byte
	answers []geoserve.Answer
}

// binTarget drives POST /v1/locate/bin: one binary batch per round
// trip.
type binTarget struct {
	client *http.Client
	base   string
	mapper uint16
	pool   sync.Pool
}

func (t *binTarget) lookup(ips []uint32) (reply, error) {
	var rep reply
	sc := t.pool.Get().(*binScratch)
	defer t.pool.Put(sc)
	sc.req = geoserve.AppendWireBatchRequest(sc.req[:0], t.mapper, ips)
	resp, err := t.client.Post(t.base+"/v1/locate/bin", geoserve.WireContentType, bytes.NewReader(sc.req))
	if err != nil {
		return rep, err
	}
	defer drain(resp)
	rep.epoch = resp.Header.Get("X-Geo-Epoch")
	if err := refused(resp, &rep); err != nil {
		return rep, err
	}
	rd, err := geoserve.NewWireReader(resp.Body)
	if err != nil {
		return rep, err
	}
	answers, _, err := rd.Next(sc.answers[:0])
	sc.answers = answers[:0]
	if err != nil {
		return rep, err
	}
	rep.found, err = countFound(answers, len(ips))
	return rep, err
}

// streamSession is one live /v1/locate/stream connection: the chunk
// writer feeding the request body and the frame reader over the
// response.
type streamSession struct {
	w       io.WriteCloser
	rd      *geoserve.WireReader
	resp    *http.Response
	chunk   []byte
	answers []geoserve.Answer
}

func (s *streamSession) close() {
	// Best-effort terminator so the server ends the stream cleanly.
	s.w.Write(geoserve.AppendWireStreamEnd(nil))
	s.w.Close()
	drain(s.resp)
}

// streamTarget drives POST /v1/locate/stream: workers check long-lived
// full-duplex sessions out of a pool and ping-pong one chunk per batch.
// The stream endpoint is endpoint-direct (the replication router
// buffers request bodies), so point -target at a geoserved, not a
// router.
type streamTarget struct {
	client *http.Client
	base   string
	mapper uint16
	pool   sync.Pool // *streamSession, dialed lazily
}

func (t *streamTarget) dial(rep *reply) (*streamSession, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", t.base+"/v1/locate/stream",
		io.MultiReader(bytes.NewReader(geoserve.AppendWireStreamHeader(nil, t.mapper)), pr))
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", geoserve.WireContentType)
	resp, err := t.client.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if err := refused(resp, rep); err != nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pw.Close()
		return nil, fmt.Errorf("stream %v: %s", err, bytes.TrimSpace(body))
	}
	rd, err := geoserve.NewWireReader(resp.Body)
	if err != nil {
		resp.Body.Close()
		pw.Close()
		return nil, err
	}
	return &streamSession{w: pw, rd: rd, resp: resp}, nil
}

func (t *streamTarget) lookup(ips []uint32) (reply, error) {
	var rep reply
	s, _ := t.pool.Get().(*streamSession)
	if s == nil {
		var err error
		if s, err = t.dial(&rep); err != nil {
			return rep, err
		}
	}
	s.chunk = geoserve.AppendWireChunk(s.chunk[:0], ips)
	if _, err := s.w.Write(s.chunk); err != nil {
		s.close()
		return rep, err
	}
	answers, tag, err := s.rd.Next(s.answers[:0])
	s.answers = answers[:0]
	if err == nil {
		rep.found, err = countFound(answers, len(ips))
	}
	if err != nil {
		// The session is dead (error frame, short frame or transport
		// failure); the next batch dials fresh.
		s.close()
		return rep, err
	}
	rep.epoch = strconv.FormatUint(tag, 16)
	t.pool.Put(s)
	return rep, nil
}
