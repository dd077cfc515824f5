package geoserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geonet/internal/obs"
)

// MaxBatch caps one /v1/locate/batch request, one /v1/locate/bin
// batch, and one stream chunk.
const MaxBatch = 4096

// maxBatchBodyBytes bounds a JSON batch request body. A full MaxBatch
// of dotted-quad addresses needs well under 128 KiB; 1 MiB leaves
// slack for formatting while keeping a hostile client from streaming
// an unbounded body into the decoder.
const maxBatchBodyBytes = 1 << 20

// NewHandler returns the service's HTTP API over a cluster:
//
//	GET  /v1/locate?ip=A.B.C.D[&mapper=NAME]   one lookup
//	POST /v1/locate/batch                      {"mapper": ..., "ips": [...]}
//	POST /v1/locate/bin                        binary batch (wire.go)
//	POST /v1/locate/stream                     full-duplex binary chunks
//	GET  /v1/as/{asn}/footprint                per-mapper AS footprints
//	GET  /v1/prefixes                          the allocated /24 index
//	GET  /healthz                              liveness + snapshot identity
//	GET  /statusz                              qps, latency quantiles, method counts, per-shard sections
//
// Responses are byte-identical at any shard count; a batch shed by a
// shard at budget answers 429. cmd/geoserved wraps the handler with
// the admin endpoints.
//
// The handler also mounts GET /metrics and GET /debug/tracez from a
// fresh observability bundle the cluster's collector is registered on;
// use NewObservedHandler to supply a bundle.
func NewHandler(c *Cluster) http.Handler {
	o := obs.NewObservability("cluster")
	o.Metrics.Collect(c.Collect)
	return NewObservedHandler(c, o)
}

// NewClusterHandler is NewHandler under the name the frozen bench/
// module calls it by for a sharded cluster (bench/README.md § "The
// surface the harness calls"); it exists only for it.
func NewClusterHandler(c *Cluster) http.Handler { return NewHandler(c) }

// apiHandler is the HTTP serving surface over a cluster: its routes
// and the trace ring traced requests record into.
type apiHandler struct {
	c    *Cluster
	wire *wireCounters
	obs  *obs.Observability
	mux  *http.ServeMux
}

func (h *apiHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// trace returns the request's trace handle (nil unless the request
// carries X-Geo-Trace), echoing the ID into the response so callers
// can correlate. The untraced path costs one header lookup.
func (h *apiHandler) trace(w http.ResponseWriter, r *http.Request) *obs.Trace {
	tr := obs.TraceFromRequest(r, h.obs.Traces)
	if tr != nil {
		w.Header().Set(obs.TraceHeader, tr.TraceID().String())
	}
	return tr
}

// NewObservedHandler is NewHandler bound to a caller-owned
// observability bundle: o's /metrics and /debug/tracez are mounted and
// traced requests record spans into o.Traces. It registers nothing —
// the bundle's owner registers a collector once (Cluster.Collect, or
// one that follows the cluster of the current epoch), however many
// handlers are built over the bundle.
func NewObservedHandler(c *Cluster, o *obs.Observability) http.Handler {
	h := &apiHandler{c: c, wire: &c.cm.wire, obs: o}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/locate", func(w http.ResponseWriter, r *http.Request) {
		if tr := h.trace(w, r); tr != nil {
			defer tr.Span("serve.locate", time.Now())
		}
		ip, err := ParseIPv4(r.URL.Query().Get("ip"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad or missing ip parameter: %v", err)
			return
		}
		mapper := r.URL.Query().Get("mapper")
		// A 400 lists the mappers of the snapshot that refused the name.
		snap, idx, a, ok := c.locate(mapper, ip)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown mapper %q (have %v)", mapper, snap.Mappers())
			return
		}
		bp := jsonBufPool.Get().(*[]byte)
		sendJSON(w, bp, append(appendAnswerJSON((*bp)[:0], a, snap.mappers[idx]), '\n'))
	})

	mux.HandleFunc("POST /v1/locate/batch", func(w http.ResponseWriter, r *http.Request) {
		tr := h.trace(w, r)
		var req struct {
			Mapper string   `json:"mapper"`
			IPs    []string `json:"ips"`
		}
		// Bound the body before decoding: without MaxBytesReader a
		// client could stream gigabytes into the JSON decoder.
		body := http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
		dec := json.NewDecoder(body)
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", maxBatchBodyBytes)
				return
			}
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		// Reject trailing garbage after the JSON object: More covers a
		// second JSON value, the second Decode catches non-JSON bytes.
		if dec.More() {
			httpError(w, http.StatusBadRequest, "trailing data after batch object")
			return
		}
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			httpError(w, http.StatusBadRequest, "trailing data after batch object")
			return
		}
		if len(req.IPs) == 0 {
			httpError(w, http.StatusBadRequest, "empty ips")
			return
		}
		if len(req.IPs) > MaxBatch {
			httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.IPs), MaxBatch)
			return
		}
		ips := make([]uint32, len(req.IPs))
		for i, ipStr := range req.IPs {
			ip, err := ParseIPv4(ipStr)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad ip %q", ipStr)
				return
			}
			ips[i] = ip
		}
		out := make([]Answer, len(ips))
		if tr != nil {
			defer tr.Span("serve.batch", time.Now(), obs.AInt("n", len(ips)))
		}
		// The mapper list of a 400 and the name in the reply come from
		// the snapshot that served, not from one loaded after a swap.
		snap, mapper, ok, err := c.locateBatch(req.Mapper, ips, out, tr)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown mapper %q (have %v)", req.Mapper, snap.Mappers())
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
		name := snap.mappers[mapper]
		bp := jsonBufPool.Get().(*[]byte)
		b := append(append(append((*bp)[:0], `{"mapper":"`...), name...), `","results":[`...)
		for _, a := range out {
			b = append(appendAnswerJSON(b, a, name), ',')
		}
		sendJSON(w, bp, append(b[:len(b)-1], "]}\n"...)) // out is never empty
	})

	mux.HandleFunc("GET /v1/as/{asn}/footprint", func(w http.ResponseWriter, r *http.Request) {
		asn, err := strconv.Atoi(r.PathValue("asn"))
		if err != nil || asn <= 0 {
			httpError(w, http.StatusBadRequest, "bad asn %q", r.PathValue("asn"))
			return
		}
		snap := c.Snapshot()
		resp := struct {
			ASN     int                      `json:"asn"`
			Mappers map[string]footprintJSON `json:"mappers"`
		}{ASN: asn, Mappers: map[string]footprintJSON{}}
		for i, name := range snap.Mappers() {
			if fp, ok := snap.Footprint(i, asn); ok {
				resp.Mappers[name] = footprintJSON{
					Interfaces:  fp.Interfaces,
					Locations:   fp.Locations,
					Degree:      fp.Degree,
					CentroidLat: fp.Centroid.Lat,
					CentroidLon: fp.Centroid.Lon,
					AreaSqMi:    fp.AreaSqMi,
					RadiusMi:    fp.RadiusMi,
				}
			}
		}
		if len(resp.Mappers) == 0 {
			httpError(w, http.StatusNotFound, "no footprint for AS %d", asn)
			return
		}
		writeJSON(w, resp)
	})

	mux.HandleFunc("GET /v1/prefixes", func(w http.ResponseWriter, r *http.Request) {
		prefixes := c.Snapshot().Prefixes()
		out := make([]string, len(prefixes))
		for i, p := range prefixes {
			out[i] = FormatIPv4(p) + "/24"
		}
		writeJSON(w, struct {
			Count    int      `json:"count"`
			Prefixes []string `json:"prefixes"`
		}{len(out), out})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Status   string       `json:"status"`
			Snapshot SnapshotInfo `json:"snapshot"`
		}{"ok", c.SnapshotInfo()})
	})

	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})

	mux.HandleFunc("POST /v1/locate/bin", h.serveWireBatch)
	mux.HandleFunc("POST /v1/locate/stream", h.serveWireStream)

	o.Mount(mux)
	h.mux = mux
	return h
}

// jsonBufPool recycles the buffers the JSON lookups assemble their
// responses in.
var jsonBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// sendJSON writes b, assembled in the pooled buffer *bp, as the whole
// response body in one Write and returns the buffer to the pool.
func sendJSON(w http.ResponseWriter, bp *[]byte, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	*bp = b[:0]
	jsonBufPool.Put(bp)
}

// MarshalAnswerJSON renders an Answer exactly as GET /v1/locate does
// (compact JSON, fixed field order, trailing newline). The wire golden
// uses it to pin that decoded binary answers are byte-equivalent to
// the JSON API's.
func MarshalAnswerJSON(a Answer, mapperName string) []byte {
	return append(appendAnswerJSON(nil, a, mapperName), '\n')
}

// appendAnswerJSON appends the JSON form of an answer, the one writer
// of it: ip, mapper and found always; exact, method, asn and radius_mi
// when not zero; lat and lon when found. Its bytes are encoding/json's
// for the same object (TestAnswerJSONMatchesEncodingJSON). The mapper
// name is written unescaped: check admits only [a-z0-9._-] names.
func appendAnswerJSON(b []byte, a Answer, mapper string) []byte {
	b = appendIPv4(append(b, `{"ip":"`...), a.IP)
	b = append(append(b, `","mapper":"`...), mapper...)
	b = strconv.AppendBool(append(b, `","found":`...), a.Found)
	if a.Exact {
		b = append(b, `,"exact":true`...)
	}
	if a.Found {
		b = appendFloatJSON(append(b, `,"lat":`...), a.Loc.Lat)
		b = appendFloatJSON(append(b, `,"lon":`...), a.Loc.Lon)
	}
	if a.Method != "" {
		b = append(append(append(b, `,"method":"`...), a.Method...), '"')
	}
	if a.ASN != 0 {
		b = strconv.AppendInt(append(b, `,"asn":`...), int64(a.ASN), 10)
	}
	if a.RadiusMi != 0 {
		b = appendFloatJSON(append(b, `,"radius_mi":`...), a.RadiusMi)
	}
	return append(b, '}')
}

// appendFloatJSON appends a finite f as encoding/json writes a
// float64: the shortest form, in exponent notation outside
// [1e-6, 1e21), with a one-digit negative exponent unpadded (1e-7).
func appendFloatJSON(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

type footprintJSON struct {
	Interfaces  int     `json:"interfaces"`
	Locations   int     `json:"locations"`
	Degree      int     `json:"degree"`
	CentroidLat float64 `json:"centroid_lat"`
	CentroidLon float64 `json:"centroid_lon"`
	AreaSqMi    float64 `json:"area_sq_mi"`
	RadiusMi    float64 `json:"radius_mi"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The header is already out; nothing useful left to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}
