package geoserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The binary wire protocol: a compact length-prefixed framing for bulk
// lookups, served at POST /v1/locate/bin (one batch per request) and
// POST /v1/locate/stream (client streams address chunks, server
// streams answer frames). All integers are little-endian.
//
// Every message opens with an 8-byte header:
//
//	[0:4]  magic "geoW"
//	[4]    version (WireVersion)
//	[5]    kind (batch/stream request or response)
//	[6:8]  mapper id: a Snapshot mapper index, or WireMapperDefault in
//	       requests to select the first mapper; responses echo the
//	       resolved index
//
// A batch request follows the header with one address chunk; a stream
// request follows it with any number of chunks and a zero-count
// terminator:
//
//	chunk = count u32 | count × addr u32
//
// A response follows its header with answer frames (one for a batch,
// one per chunk plus a zero-count terminator for a stream):
//
//	frame = count u32 | epoch tag u64 | count × answer
//
// The epoch tag is the first 8 bytes of the serving snapshot's content
// digest; every answer in one frame comes from that single snapshot
// (the cluster's epoch guard), so a reader can detect a hot-swap
// between frames without ever seeing a blended frame. An answer is 36
// bytes — the queried address followed by the 32-byte record:
//
//	answer = ip u32 | record
//	record = lat f64 | lon f64 | radius_mi f64 | asn u32 |
//	         flags u8 (bit0 found, bit1 exact) | method u8 | 0 u16
//
// The record is not an encoding made for the wire: it is the row the
// snapshot stores (record.go), the snapfile's answers section and the
// snapdelta's put-op payload, so a served answer is one copy of 32
// bytes out of the snapshot and a miss is 32 zero bytes.
//
// A stream response may end early with an error frame — count
// 0xFFFFFFFF followed by a u32 code — when a chunk is oversized, the
// mapper id stops resolving after a swap, or the cluster sheds the
// chunk at its in-flight budget.
const (
	wireMagic   = "geoW"
	WireVersion = 1

	// WireMapperDefault in a request's mapper field selects the
	// snapshot's first mapper (the request-side analogue of an empty
	// mapper name on the JSON API).
	WireMapperDefault = 0xFFFF

	wireHeaderSize = 8
	// WireAnswerSize is the fixed width of one answer on the wire: the
	// queried address plus its record.
	WireAnswerSize = 4 + RecordSize

	wireKindBatchReq   = 1
	wireKindStreamReq  = 2
	wireKindBatchResp  = 3
	wireKindStreamResp = 4

	// wireErrFrame marks an error frame in a stream response; the next
	// u32 is a wireErrCode, optionally flagged with wireErrTraceFlag.
	wireErrFrame = 0xFFFFFFFF

	wireErrCodeOverloaded    = 1
	wireErrCodeBadChunk      = 2
	wireErrCodeUnknownMapper = 3

	// wireErrTraceFlag on an error code means an 8-byte trace ID
	// follows the code — the ID of the request whose failure produced
	// the frame, quotable against the server's /debug/tracez. The flag
	// is only ever set for traced requests, so untraced streams keep
	// the original 8-byte error frame byte-for-byte.
	wireErrTraceFlag = 0x80000000
)

// WireContentType is the Content-Type of binary wire requests and
// responses.
const WireContentType = "application/x-geoserve-wire"

// Typed wire-decode errors, mirroring snapfile's: every malformed
// input maps to exactly one of these (wrapped with detail), never a
// panic — FuzzWireDecode pins that.
var (
	ErrWireMagic   = errors.New("geoserve: not a wire message (bad magic)")
	ErrWireVersion = errors.New("geoserve: unsupported wire version")
	ErrWireFormat  = errors.New("geoserve: malformed wire message")

	// ErrWireOverloaded is decoded from a stream error frame: the
	// server shed a chunk at its in-flight budget (the streaming
	// analogue of HTTP 429).
	ErrWireOverloaded = errors.New("geoserve: stream shed by overloaded server")
	// ErrWireStream is decoded from any other stream error frame (an
	// oversized chunk, or a mapper id that stopped resolving after a
	// hot-swap).
	ErrWireStream = errors.New("geoserve: stream terminated by server error")
)

func putWireHeader(dst []byte, kind byte, mapper uint16) {
	copy(dst, wireMagic)
	dst[4] = WireVersion
	dst[5] = kind
	binary.LittleEndian.PutUint16(dst[6:], mapper)
}

// parseWireHeader validates an 8-byte message header and returns its
// kind and mapper id.
func parseWireHeader(b []byte) (kind byte, mapper uint16, err error) {
	if len(b) < wireHeaderSize {
		return 0, 0, fmt.Errorf("%w: %d-byte header", ErrWireFormat, len(b))
	}
	if string(b[:4]) != wireMagic {
		return 0, 0, fmt.Errorf("%w: got %q", ErrWireMagic, b[:4])
	}
	if b[4] != WireVersion {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrWireVersion, b[4], WireVersion)
	}
	if b[5] < wireKindBatchReq || b[5] > wireKindStreamResp {
		return 0, 0, fmt.Errorf("%w: unknown kind %d", ErrWireFormat, b[5])
	}
	return b[5], binary.LittleEndian.Uint16(b[6:]), nil
}

// AppendWireBatchRequest encodes a complete /v1/locate/bin request
// body: header plus one address chunk.
func AppendWireBatchRequest(dst []byte, mapper uint16, ips []uint32) []byte {
	dst = appendWireHeader(dst, wireKindBatchReq, mapper)
	return appendWireChunkBody(dst, ips)
}

func appendWireHeader(dst []byte, kind byte, mapper uint16) []byte {
	var h [wireHeaderSize]byte
	putWireHeader(h[:], kind, mapper)
	return append(dst, h[:]...)
}

func appendWireChunkBody(dst []byte, ips []uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ips)))
	for _, ip := range ips {
		dst = binary.LittleEndian.AppendUint32(dst, ip)
	}
	return dst
}

// parseWireBatchRequest decodes a complete batch request body. The
// addresses are appended to ips (reusing its capacity), so the serving
// hot path never allocates once scratch buffers are warm.
func parseWireBatchRequest(body []byte, ips []uint32) (mapper uint16, _ []uint32, err error) {
	kind, mapper, err := parseWireHeader(body)
	if err != nil {
		return 0, ips, err
	}
	if kind != wireKindBatchReq {
		return 0, ips, fmt.Errorf("%w: kind %d is not a batch request", ErrWireFormat, kind)
	}
	rest := body[wireHeaderSize:]
	if len(rest) < 4 {
		return 0, ips, fmt.Errorf("%w: truncated chunk count", ErrWireFormat)
	}
	n := binary.LittleEndian.Uint32(rest)
	if n == 0 {
		return 0, ips, fmt.Errorf("%w: empty batch", ErrWireFormat)
	}
	if n > MaxBatch {
		return 0, ips, fmt.Errorf("%w: batch of %d exceeds limit %d", ErrWireFormat, n, MaxBatch)
	}
	rest = rest[4:]
	if len(rest) != int(n)*4 {
		return 0, ips, fmt.Errorf("%w: %d addresses need %d bytes, have %d", ErrWireFormat, n, n*4, len(rest))
	}
	for i := 0; i < int(n); i++ {
		ips = append(ips, binary.LittleEndian.Uint32(rest[i*4:]))
	}
	return mapper, ips, nil
}

// decodeWireAnswer decodes one 36-byte answer, validating every field
// so a corrupt frame surfaces as ErrWireFormat rather than a nonsense
// Answer.
func decodeWireAnswer(b []byte) (Answer, error) {
	if len(b) < WireAnswerSize {
		return Answer{}, fmt.Errorf("%w: %d-byte answer", ErrWireFormat, len(b))
	}
	rec := b[4:WireAnswerSize]
	if err := checkRecord(rec); err != nil {
		return Answer{}, fmt.Errorf("%w: %v", ErrWireFormat, err)
	}
	return recordAnswer(binary.LittleEndian.Uint32(b), rec), nil
}

// WireReader decodes a binary wire response — the single frame of a
// /v1/locate/bin reply or the frame sequence of a /v1/locate/stream
// reply — from any io.Reader.
type WireReader struct {
	r        io.Reader
	mapper   uint16
	buf      []byte
	errTrace uint64
}

// ErrTraceID reports the trace ID carried by the last decoded error
// frame (0 when the frame was untraced or no error frame has been
// read). Render it with obs.TraceID for the server's /debug/tracez.
func (wr *WireReader) ErrTraceID() uint64 { return wr.errTrace }

// NewWireReader reads and validates the response header; the returned
// reader yields answer frames via Next.
func NewWireReader(r io.Reader) (*WireReader, error) {
	var hdr [wireHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrWireFormat, err)
	}
	kind, mapper, err := parseWireHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if kind != wireKindBatchResp && kind != wireKindStreamResp {
		return nil, fmt.Errorf("%w: kind %d is not a response", ErrWireFormat, kind)
	}
	return &WireReader{r: r, mapper: mapper}, nil
}

// Next reads one answer frame, appending its answers to out. It
// returns io.EOF at a clean end of the response (a stream terminator
// frame, or the end of a batch reply); a stream error frame surfaces
// as ErrWireOverloaded or ErrWireStream, any malformed data as a
// wrapped ErrWire* error.
func (wr *WireReader) Next(out []Answer) (_ []Answer, tag uint64, err error) {
	var pre [12]byte
	if _, err := io.ReadFull(wr.r, pre[:4]); err != nil {
		if err == io.EOF {
			return out, 0, io.EOF
		}
		return out, 0, fmt.Errorf("%w: truncated frame count: %v", ErrWireFormat, err)
	}
	n := binary.LittleEndian.Uint32(pre[:4])
	switch {
	case n == 0:
		return out, 0, io.EOF
	case n == wireErrFrame:
		if _, err := io.ReadFull(wr.r, pre[:4]); err != nil {
			return out, 0, fmt.Errorf("%w: truncated error frame: %v", ErrWireFormat, err)
		}
		code := binary.LittleEndian.Uint32(pre[:4])
		if code&wireErrTraceFlag != 0 {
			code &^= wireErrTraceFlag
			if _, err := io.ReadFull(wr.r, pre[4:12]); err != nil {
				return out, 0, fmt.Errorf("%w: truncated error-frame trace id: %v", ErrWireFormat, err)
			}
			wr.errTrace = binary.LittleEndian.Uint64(pre[4:12])
		}
		switch code {
		case wireErrCodeOverloaded:
			return out, 0, ErrWireOverloaded
		default:
			return out, 0, fmt.Errorf("%w (code %d)", ErrWireStream, code)
		}
	case n > MaxBatch:
		return out, 0, fmt.Errorf("%w: frame of %d exceeds limit %d", ErrWireFormat, n, MaxBatch)
	}
	if _, err := io.ReadFull(wr.r, pre[4:12]); err != nil {
		return out, 0, fmt.Errorf("%w: truncated epoch tag: %v", ErrWireFormat, err)
	}
	tag = binary.LittleEndian.Uint64(pre[4:12])
	need := int(n) * WireAnswerSize
	if cap(wr.buf) < need {
		wr.buf = make([]byte, need)
	}
	buf := wr.buf[:need]
	if _, err := io.ReadFull(wr.r, buf); err != nil {
		return out, 0, fmt.Errorf("%w: truncated answers: %v", ErrWireFormat, err)
	}
	for i := 0; i < int(n); i++ {
		a, err := decodeWireAnswer(buf[i*WireAnswerSize:])
		if err != nil {
			return out, 0, err
		}
		out = append(out, a)
	}
	return out, tag, nil
}

// DecodeWireBatch decodes a complete /v1/locate/bin response: exactly
// one answer frame with no trailing bytes.
func DecodeWireBatch(data []byte) (mapper uint16, tag uint64, answers []Answer, err error) {
	r := &sliceReader{b: data}
	wr, err := NewWireReader(r)
	if err != nil {
		return 0, 0, nil, wireDecodeErr(err)
	}
	answers, tag, err = wr.Next(nil)
	if err != nil {
		return 0, 0, nil, wireDecodeErr(err)
	}
	if len(answers) == 0 {
		return 0, 0, nil, fmt.Errorf("%w: empty batch response", ErrWireFormat)
	}
	if r.off != len(data) {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrWireFormat, len(data)-r.off)
	}
	return wr.mapper, tag, answers, nil
}

// wireDecodeErr normalizes errors out of the one-shot decode: on an
// in-memory slice an io truncation means a malformed frame, so it maps
// to ErrWireFormat (a live stream reader keeps the io error as-is).
// io.EOF here is a response that ended before its first frame.
func wireDecodeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated response", ErrWireFormat)
	}
	return err
}

// sliceReader is a minimal bytes.Reader that exposes its offset, so
// DecodeWireBatch can reject trailing garbage precisely.
type sliceReader struct {
	b   []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// --- Serving from the snapshot's records ---

var zeroRecord [RecordSize]byte

// wireTag is the epoch tag framed into every answer frame: the first 8
// bytes of the content digest, so two snapshots tag equal iff their
// digests share a prefix (in practice: iff they are the same content).
func (s *Snapshot) wireTag() uint64 { return s.tag }

// wireMapperIndex resolves a request's mapper id on this snapshot.
func (s *Snapshot) wireMapperIndex(id uint16) (int, bool) {
	if id == WireMapperDefault {
		return 0, len(s.mappers) > 0
	}
	if int(id) < len(s.mappers) {
		return int(id), true
	}
	return 0, false
}

// wireAnswer writes ip's 36-byte wire answer under mapper at dst and
// returns the answer's method code. The record bytes are one copy out
// of the snapshot; a miss copies the static zero record.
func (s *Snapshot) wireAnswer(mapper int, ip uint32, dst []byte) method {
	binary.LittleEndian.PutUint32(dst, ip)
	g, row := s.dir.row(ip)
	rec := s.record(mapper, g, row)
	if rec == nil {
		rec = zeroRecord[:]
	}
	copy(dst[4:WireAnswerSize], rec)
	return method(rec[recOffMethod])
}
