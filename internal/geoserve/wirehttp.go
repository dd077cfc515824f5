package geoserve

import (
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geonet/internal/obs"
)

// wireMaxBatchBody is the exact size of a maximal batch request;
// anything longer is rejected before parsing.
const wireMaxBatchBody = wireHeaderSize + 4 + MaxBatch*4

// wireScratch is the pooled per-request state of the binary endpoints:
// request bytes, decoded addresses and the response under assembly.
// Once the pool is warm a batch request allocates nothing.
type wireScratch struct {
	body []byte
	ips  []uint32
	out  []byte
}

var wireScratchPool = sync.Pool{New: func() any {
	return &wireScratch{body: make([]byte, 0, wireMaxBatchBody)}
}}

// ReadAllInto reads r to EOF into dst's capacity, growing as needed —
// io.ReadAll with a reusable buffer (the router's forward path too).
func ReadAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// serveWireBatch answers POST /v1/locate/bin: one binary batch
// request in, one epoch-tagged answer frame out. Wire parse errors map
// to 400, an oversized body to 413, a shed batch to 429 — the same
// envelope semantics as the JSON batch endpoint.
func (h *apiHandler) serveWireBatch(w http.ResponseWriter, r *http.Request) {
	tr := h.trace(w, r)
	if tr != nil {
		defer tr.Span("serve.wire_batch", time.Now())
	}
	sc := wireScratchPool.Get().(*wireScratch)
	defer wireScratchPool.Put(sc)
	body, err := ReadAllInto(sc.body[:0], http.MaxBytesReader(w, r.Body, wireMaxBatchBody))
	sc.body = body[:0]
	h.wire.rxBytes.Add(uint64(len(body)))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "wire batch body exceeds %d bytes", wireMaxBatchBody)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	mapperID, ips, err := parseWireBatchRequest(body, sc.ips[:0])
	sc.ips = ips[:0]
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	need := wireHeaderSize + 12 + len(ips)*WireAnswerSize
	if cap(sc.out) < need {
		sc.out = make([]byte, need)
	}
	resp := sc.out[:need]
	encStart := time.Now()
	snap, idx, ok, err := h.c.serveWire(mapperID, ips, resp[wireHeaderSize+12:], tr)
	if !ok {
		httpError(w, http.StatusBadRequest, "wire mapper id %d does not resolve (have %v)", mapperID, snap.Mappers())
		return
	}
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if tr != nil {
		tr.Span("wire.encode", encStart, obs.AInt("n", len(ips)))
	}
	putWireHeader(resp, wireKindBatchResp, uint16(idx))
	binary.LittleEndian.PutUint32(resp[wireHeaderSize:], uint32(len(ips)))
	binary.LittleEndian.PutUint64(resp[wireHeaderSize+4:], snap.wireTag())
	w.Header().Set("Content-Type", WireContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.Write(resp)
	h.wire.batchFrames.Inc()
	h.wire.txBytes.Add(uint64(len(resp)))
}

// serveWireStreamHTTP answers POST /v1/locate/stream: after the stream
// header the client sends address chunks and the server answers each
// with one epoch-tagged frame, flushed as it completes, until the
// zero-count terminator. Each chunk serves from its own epoch-
// consistent view, so a frame never blends epochs — a hot-swap mid-
// stream shows up as a tag change between frames. Past the response
// header, errors travel in-band as error frames (HTTP status is
// already committed).
func (h *apiHandler) serveWireStream(w http.ResponseWriter, r *http.Request) {
	tr := h.trace(w, r)
	chunks := 0
	if tr != nil {
		t0 := time.Now()
		defer func() {
			tr.Span("serve.wire_stream", t0, obs.AInt("chunks", chunks))
		}()
	}
	var hdr [wireHeaderSize]byte
	if _, err := io.ReadFull(r.Body, hdr[:]); err != nil {
		httpError(w, http.StatusBadRequest, "reading stream header: %v", err)
		return
	}
	h.wire.rxBytes.Add(wireHeaderSize)
	kind, mapperID, err := parseWireHeader(hdr[:])
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if kind != wireKindStreamReq {
		httpError(w, http.StatusBadRequest, "wire kind %d is not a stream request", kind)
		return
	}
	// Resolve against the current snapshot so a bad mapper id still
	// gets a clean 400; each chunk re-resolves on its serving epoch.
	snap := h.c.Snapshot()
	idx, ok := snap.wireMapperIndex(mapperID)
	if !ok {
		httpError(w, http.StatusBadRequest, "wire mapper id %d does not resolve (have %v)", mapperID, snap.Mappers())
		return
	}

	// Full duplex: the handler keeps reading chunks from the request
	// body after it has started writing frames (HTTP/1.1, Go 1.21+).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", WireContentType)
	putWireHeader(hdr[:], wireKindStreamResp, uint16(idx))
	if _, err := w.Write(hdr[:]); err != nil {
		return
	}
	rc.Flush()

	sc := wireScratchPool.Get().(*wireScratch)
	defer wireScratchPool.Put(sc)
	var cnt [4]byte
	var lastTag uint64
	for {
		if _, err := io.ReadFull(r.Body, cnt[:]); err != nil {
			// The client hung up without a terminator; there is no one
			// left to tell.
			return
		}
		h.wire.rxBytes.Add(4)
		n := binary.LittleEndian.Uint32(cnt[:])
		if n == 0 {
			// Clean end of stream: echo the terminator frame.
			w.Write(cnt[:])
			h.wire.txBytes.Add(4)
			rc.Flush()
			return
		}
		if n > MaxBatch {
			h.writeErrFrame(w, wireErrCodeBadChunk, tr)
			rc.Flush()
			return
		}
		need := int(n) * 4
		if cap(sc.body) < need {
			sc.body = make([]byte, need)
		}
		buf := sc.body[:need]
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return
		}
		h.wire.rxBytes.Add(uint64(need))
		ips := sc.ips[:0]
		for i := 0; i < int(n); i++ {
			ips = append(ips, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		sc.ips = ips[:0]

		frameLen := 12 + int(n)*WireAnswerSize
		if cap(sc.out) < frameLen {
			sc.out = make([]byte, frameLen)
		}
		frame := sc.out[:frameLen]
		encStart := time.Now()
		snap, _, ok, err := h.c.serveWire(mapperID, ips, frame[12:], tr)
		if !ok {
			// The mapper id stopped resolving after a hot-swap.
			h.writeErrFrame(w, wireErrCodeUnknownMapper, tr)
			rc.Flush()
			return
		}
		if err != nil {
			code := uint32(wireErrCodeBadChunk)
			if errors.Is(err, ErrOverloaded) {
				code = wireErrCodeOverloaded
			}
			h.writeErrFrame(w, code, tr)
			rc.Flush()
			return
		}
		if tr != nil {
			tr.Span("wire.encode", encStart, obs.AInt("n", int(n)))
		}
		tag := snap.wireTag()
		if lastTag != 0 && tag != lastTag {
			// A hot-swap landed between chunks: the stream's answer
			// frames now carry a different epoch tag.
			h.wire.epochChanges.Inc()
		}
		lastTag = tag
		binary.LittleEndian.PutUint32(frame, n)
		binary.LittleEndian.PutUint64(frame[4:], tag)
		if _, err := w.Write(frame); err != nil {
			return
		}
		chunks++
		h.wire.streamFrames.Inc()
		h.wire.txBytes.Add(uint64(frameLen))
		rc.Flush()
	}
}

// writeErrFrame writes one in-band error frame. For a traced request
// the frame carries the trace ID (the wireErrTraceFlag bit on the code
// plus an 8-byte ID tail), so a client that hit a shed or a mid-swap
// failure can quote the exact trace to go look up in /debug/tracez;
// untraced requests get the classic 8-byte frame, byte-identical to
// earlier protocol versions.
func (h *apiHandler) writeErrFrame(w io.Writer, code uint32, tr *obs.Trace) {
	writeWireErrFrame(w, code, uint64(tr.TraceID()))
	h.wire.errFrames.Inc()
	if tr.TraceID() != 0 {
		h.wire.txBytes.Add(16)
	} else {
		h.wire.txBytes.Add(8)
	}
}

func writeWireErrFrame(w io.Writer, code uint32, traceID uint64) {
	var f [16]byte
	binary.LittleEndian.PutUint32(f[:], wireErrFrame)
	if traceID == 0 {
		binary.LittleEndian.PutUint32(f[4:], code)
		w.Write(f[:8])
		return
	}
	binary.LittleEndian.PutUint32(f[4:], code|wireErrTraceFlag)
	binary.LittleEndian.PutUint64(f[8:], traceID)
	w.Write(f[:16])
}
