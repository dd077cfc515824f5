package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"geonet/internal/geoserve"
)

// httpConn is one keep-alive HTTP/1.1 connection driven by hand: the
// request is a byte slice written as is, the reply is parsed into
// reused buffers. net/http's client would spend more processor time
// and allocate more per request than the 0.1 ms server path it
// measures, on a box where client and server share two cores.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte // the caller's assembly buffer for requests built per call
	body []byte // the last reply's body
	// epoch is the last reply's X-Geo-Epoch (0 when absent).
	epoch uint64
}

func dialHTTP(addr string, deadline time.Time) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// One deadline for the connection's whole life, so a server that
	// stops answering fails the run instead of hanging it.
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) close() { h.c.Close() }

var (
	hdrContentLength = []byte("content-length")
	hdrTransferEnc   = []byte("transfer-encoding")
	hdrEpoch         = []byte("x-geo-epoch")
	errStatus        = errors.New("non-200 reply")
)

// roundTrip writes req and reads one reply into h.body. A non-200
// status is an error (the body is still consumed, so the connection
// stays usable).
func (h *httpConn) roundTrip(req []byte) error {
	if _, err := h.c.Write(req); err != nil {
		return err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	h.epoch = 0
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return fmt.Errorf("bad header line %q", line)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, hdrContentLength):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return fmt.Errorf("bad content length %q", val)
			}
		case bytes.EqualFold(name, hdrTransferEnc):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, hdrEpoch):
			h.epoch, _ = strconv.ParseUint(string(val), 10, 64)
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		if err := h.readChunks(); err != nil {
			return err
		}
	case length >= 0:
		if err := h.readN(length); err != nil {
			return err
		}
	default:
		return errors.New("reply has neither a length nor chunks")
	}
	if status != 200 {
		return fmt.Errorf("%w: status %d: %.80s", errStatus, status, h.body)
	}
	return nil
}

// readN appends the next n bytes of the reply to h.body.
func (h *httpConn) readN(n int) error {
	off := len(h.body)
	if cap(h.body) < off+n {
		h.body = append(h.body[:cap(h.body)], make([]byte, off+n-cap(h.body))...)
	}
	h.body = h.body[:off+n]
	_, err := io.ReadFull(h.br, h.body[off:])
	return err
}

func (h *httpConn) readChunks() error {
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseUint(string(size), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// No trailers are ever sent; the final CRLF ends the reply.
			_, err := h.br.Discard(2)
			return err
		}
		if err := h.readN(int(n)); err != nil {
			return err
		}
		if _, err := h.br.Discard(2); err != nil {
			return err
		}
	}
}

// appendLocateRequest appends GET /v1/locate for ip and mapper;
// extraHeader, when non-empty, is one complete "Name: value\r\n" line.
func appendLocateRequest(b []byte, ip uint32, mapper, extraHeader string) []byte {
	b = append(b, "GET /v1/locate?ip="...)
	b = appendIPv4(b, ip)
	b = append(b, "&mapper="...)
	b = append(b, mapper...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	b = append(b, extraHeader...)
	return append(b, "\r\n"...)
}

func appendIPv4(b []byte, ip uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(ip>>shift&0xff), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// Wire reply layout, from the protocol description in geoserve/wire.go:
// 8-byte header ("geoW", version, kind 3 = batch reply, mapper u16),
// then count u32, epoch tag u64, count × 36-byte answers that each open
// with the queried address.
const (
	wireReplyHead   = 8 + 4 + 8
	wireKindBatchRe = 3
)

// checkBinReply is the check made on every binary reply: exact length,
// header, mapper, count, and the address echoed in each answer. It
// returns the frame's epoch tag.
func checkBinReply(body []byte, f *binFrames, req []byte, mapper int) (uint64, error) {
	if want := wireReplyHead + f.batch*geoserve.WireAnswerSize; len(body) != want {
		return 0, fmt.Errorf("binary reply is %d bytes, want %d", len(body), want)
	}
	if string(body[:4]) != "geoW" || body[4] != geoserve.WireVersion || body[5] != wireKindBatchRe {
		return 0, fmt.Errorf("bad wire header % x", body[:8])
	}
	if got := int(binary.LittleEndian.Uint16(body[6:])); got != mapper {
		return 0, fmt.Errorf("reply is for mapper %d, asked %d", got, mapper)
	}
	if got := int(binary.LittleEndian.Uint32(body[8:])); got != f.batch {
		return 0, fmt.Errorf("reply holds %d answers, asked %d", got, f.batch)
	}
	for j := 0; j < f.batch; j++ {
		if got, want := binary.LittleEndian.Uint32(body[wireReplyHead+j*geoserve.WireAnswerSize:]), f.addr(req, j); got != want {
			return 0, fmt.Errorf("answer %d echoes address %d, asked %d", j, got, want)
		}
	}
	return binary.LittleEndian.Uint64(body[12:]), nil
}

// binVerifier decodes whole binary replies and compares every field of
// every answer with the snapshot's own lookup.
type binVerifier struct {
	rd      bytes.Reader
	answers []geoserve.Answer
}

func (v *binVerifier) verify(body []byte, snap *geoserve.Snapshot, mapper int) error {
	v.rd.Reset(body)
	wr, err := geoserve.NewWireReader(&v.rd)
	if err != nil {
		return err
	}
	answers, _, err := wr.Next(v.answers[:0])
	v.answers = answers[:0]
	if err != nil {
		return err
	}
	for _, got := range answers {
		if want := snap.Lookup(mapper, got.IP); got != want {
			return fmt.Errorf("wrong answer for %s: got %+v, snapshot says %+v", geoserve.FormatIPv4(got.IP), got, want)
		}
	}
	return nil
}

// checkLocateReply is the check made on every JSON reply: it answers
// for the address asked.
func checkLocateReply(body []byte, ip uint32) error {
	var want [32]byte
	w := appendIPv4(append(want[:0], `{"ip":"`...), ip)
	w = append(w, '"')
	if !bytes.HasPrefix(body, w) || body[len(body)-1] != '\n' {
		return fmt.Errorf("reply %.60q does not answer for %s", body, w)
	}
	return nil
}

// verifyLocateReply compares a JSON reply byte for byte with the
// snapshot's own lookup rendered the way the service renders it.
func verifyLocateReply(body []byte, snap *geoserve.Snapshot, mapper int, name string, ip uint32) error {
	if want := geoserve.MarshalAnswerJSON(snap.Lookup(mapper, ip), name); !bytes.Equal(body, want) {
		return fmt.Errorf("wrong answer: got %q, snapshot says %q", body, want)
	}
	return nil
}
