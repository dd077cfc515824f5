package geoserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
		// The hot path: the response body is the queried address
		// spliced into the snapshot's preserialized tail for the
		// answer row — no per-request JSON encoding. Byte-identical to
		// encoding answerJSON(c.Lookup(...)) (the goldens pin it).
		// A 400 lists the mappers of the snapshot that refused the name.
		snap, tail, ok := c.locateTail(mapper, ip)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown mapper %q (have %v)", mapper, snap.Mappers())
			return
		}
		writeLocate(w, ip, tail)
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
		mapperName := snap.mappers[mapper]
		results := make([]locateJSON, len(out))
		for i, a := range out {
			results[i] = answerJSON(a, mapperName)
		}
		writeJSON(w, struct {
			Mapper  string       `json:"mapper"`
			Results []locateJSON `json:"results"`
		}{mapperName, results})
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

// locateBufPool recycles the response-assembly buffers of the JSON
// single-lookup hot path.
var locateBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// writeLocate assembles a /v1/locate response from the queried address
// and the snapshot's preserialized tail, in one buffered write.
func writeLocate(w http.ResponseWriter, ip uint32, tail []byte) {
	w.Header().Set("Content-Type", "application/json")
	bp := locateBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"ip":"`...)
	b = appendIPv4(b, ip)
	b = append(b, tail...)
	w.Write(b)
	*bp = b[:0]
	locateBufPool.Put(bp)
}

// locateJSON is the wire form of an Answer. Field order is fixed so
// responses are byte-stable for the golden tests.
type locateJSON struct {
	IP     string   `json:"ip"`
	Mapper string   `json:"mapper"`
	Found  bool     `json:"found"`
	Exact  bool     `json:"exact,omitempty"`
	Lat    *float64 `json:"lat,omitempty"`
	Lon    *float64 `json:"lon,omitempty"`
	Method string   `json:"method,omitempty"`
	ASN    int      `json:"asn,omitempty"`
	// RadiusMi is the confidence-style radius from the origin AS's
	// footprint under this mapper.
	RadiusMi float64 `json:"radius_mi,omitempty"`
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

func answerJSON(a Answer, mapperName string) locateJSON {
	out := locateJSON{
		IP:       FormatIPv4(a.IP),
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
