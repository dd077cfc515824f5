package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"geonet/internal/faultinject"
	"geonet/internal/geoserve"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// zeros is an endless body of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestRouterForwardRefusesUnreadableRequest pins that a request the
// router could not read whole never reaches a replica: a body over the
// 64 MB cap is a 413 and a client that fails mid-upload a 400, both in
// the JSON error envelope, with no exchange on the fleet's transport,
// no member counter touched and no retry token spent.
func TestRouterForwardRefusesUnreadableRequest(t *testing.T) {
	f := newFleet(t, 2, makeSnapshot(t, 31, 20, 6), nil)
	h := f.router.Handler()
	half := geoserve.AppendWireBatchRequest(nil, 0, wireIPs(t, 24))[:40]

	for _, tc := range []struct {
		name     string
		body     io.Reader
		declared int64
		want     int
	}{
		{"over the cap", io.LimitReader(zeros{}, maxBody+1), maxBody + 1, http.StatusRequestEntityTooLarge},
		{"client fails mid-upload", io.MultiReader(bytes.NewReader(half), iotest.ErrReader(errors.New("client went away"))), 114, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == http.StatusRequestEntityTooLarge && testing.Short() {
				t.Skip("streams 64 MB through the router")
			}
			before, exchanges := f.router.Status(), f.tr.Counters().Attempts
			req := httptest.NewRequest("POST", "/v1/locate/bin", tc.body)
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			var envelope struct {
				Error string `json:"error"`
			}
			if rec.Code != tc.want || rec.Header().Get("Content-Type") != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &envelope) != nil || envelope.Error == "" {
				t.Fatalf("status %d, Content-Type %q, body %q; want %d in the JSON error envelope",
					rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), tc.want)
			}
			if got := f.tr.Counters().Attempts; got != exchanges {
				t.Fatalf("%d exchanges on the fleet transport, want none", got-exchanges)
			}
			st := f.router.Status()
			if st.Retries != before.Retries || st.Sheds != before.Sheds || st.RetryBudget != before.RetryBudget {
				t.Fatalf("router spent budget on an unreadable request: %+v", st)
			}
			for i, m := range st.Replicas {
				if b := before.Replicas[i]; m.Requests != b.Requests || m.Failures != b.Failures || m.InFlight != 0 {
					t.Fatalf("member %s touched: %+v (was %+v)", m.URL, m, b)
				}
			}
		})
	}
}

// declareLength gives h's replies the Content-Length a net/http server
// adds to a short reply its handler did not flush; the in-memory
// transport has no server to do it, and an early clean EOF can only be
// told from a whole body by that length.
func declareLength(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		maps.Copy(w.Header(), rec.Header())
		w.Header().Set("Content-Length", strconv.Itoa(rec.Body.Len()))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// TestRouterRetriesMidBodyFailure pins the guarantee DESIGN.md states
// for the forward path: a replica that sends its headers and then
// resets, ends the body early or stalls past the deadline is a failed
// attempt retried on another member — the client's reply is byte-
// identical to the engine's, never a cut 200. The fault hits the first
// attempt's replica only.
func TestRouterRetriesMidBodyFailure(t *testing.T) {
	snap := makeSnapshot(t, 23, 40, 10)
	dc, _ := localClient(fleetMux{"direct": geoserve.NewHandler(geoserve.NewEngine(snap))}, nil)
	ips := wireIPs(t, 24)

	requests := []struct {
		name string
		do   func(client *http.Client, base string) (int, string)
	}{
		{"POST /v1/locate/bin", func(c *http.Client, base string) (int, string) {
			code, body := postWireBin(t, c, base, 0, ips)
			return code, string(body)
		}},
		{"GET /v1/locate", func(c *http.Client, base string) (int, string) {
			return get(t, c, base+"/v1/locate?ip=10.3.0.1")
		}},
	}
	faults := []struct {
		name  string
		fault faultinject.Fault
	}{
		{"reset", faultinject.Fault{ResetAt: 40, FlipBit: -1}},
		{"truncate", faultinject.Fault{TruncateAt: 40, FlipBit: -1}},
		{"stall", faultinject.Fault{StallAt: 40, StallPause: time.Minute, FlipBit: -1}},
	}
	for _, rq := range requests {
		for _, ft := range faults {
			t.Run(rq.name+"/"+ft.name, func(t *testing.T) {
				var armed atomic.Bool
				var victim atomic.Value
				decide := func(_ int, req *http.Request) faultinject.Fault {
					if strings.HasPrefix(req.URL.Host, "rep") && req.URL.Path != "/healthz" && armed.CompareAndSwap(true, false) {
						victim.Store("http://" + req.URL.Host)
						return ft.fault
					}
					return faultinject.Clean
				}
				// The short deadline is what ends the stall.
				f := newFleetWith(t, 2, snap, decide, RouterConfig{FailThreshold: 1, RequestTimeout: 300 * time.Millisecond})
				for i := range f.replicas {
					f.mux[fmt.Sprintf("rep%d", i)] = declareLength(f.replicas[i].Handler())
				}
				armed.Store(true)
				code, body := rq.do(f.client, "http://router")
				dCode, dBody := rq.do(dc, "http://direct")
				if code != http.StatusOK || code != dCode || body != dBody {
					t.Fatalf("router (%d, %d bytes) diverges from engine (%d, %d bytes)", code, len(body), dCode, len(dBody))
				}
				st := f.router.Status()
				if st.Retries != 1 || st.Sheds != 0 {
					t.Fatalf("retries %d sheds %d, want 1 and 0", st.Retries, st.Sheds)
				}
				for _, m := range st.Replicas {
					if failed := m.URL == victim.Load(); failed && (m.Failures != 1 || m.Requests != 0) ||
						!failed && (m.Failures != 0 || m.Requests != 1) {
						t.Fatalf("member %s (faulted %v): %+v", m.URL, failed, m)
					}
				}
			})
		}
	}

	// The same over a real socket, where the fault is the stdlib's own
	// io.ErrUnexpectedEOF: a fake replica declares Content-Length N,
	// writes half of it and closes; the second member is a real replica.
	t.Run("socket/short body", func(t *testing.T) {
		pub := NewPublisher()
		if _, err := pub.Publish(snap); err != nil {
			t.Fatal(err)
		}
		bc, _ := localClient(fleetMux{"builder": pub.Handler()}, nil)
		rep := New(Config{BuilderURL: "http://builder", Client: bc})
		if _, err := rep.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		good := httptest.NewServer(rep.Handler())
		defer good.Close()
		_, want := postWireBin(t, dc, "http://direct", 0, ips)

		var cut atomic.Int32
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/healthz" {
				writeJSON(w, healthzBody{Status: "ok", Epoch: rep.Status().Epoch, Digest: rep.Status().Digest})
				return
			}
			cut.Add(1)
			io.Copy(io.Discard, req.Body)
			conn, rw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", geoserve.WireContentType, len(want))
			rw.Write(want[:len(want)/2])
			rw.Flush()
		}))
		defer bad.Close()

		transport := &http.Transport{}
		defer transport.CloseIdleConnections()
		router := NewRouter(RouterConfig{
			Replicas:      []string{bad.URL, good.URL},
			Client:        &http.Client{Transport: transport},
			FailThreshold: 1,
		})
		router.ProbeOnce(context.Background())
		rec := httptest.NewRecorder()
		router.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/locate/bin",
			bytes.NewReader(geoserve.AppendWireBatchRequest(nil, 0, ips))))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("router answered %d with %d bytes, want 200 with the engine's %d", rec.Code, rec.Body.Len(), len(want))
		}
		st := router.Status()
		if cut.Load() != 1 || st.Retries != 1 || st.Sheds != 0 || st.Replicas[0].Failures != 1 || st.Replicas[1].Requests != 1 {
			t.Fatalf("%d cut replies, status %+v", cut.Load(), st)
		}

		// A HEAD reply declares a length and carries no body; that is
		// a whole reply, not a cut one.
		rec = httptest.NewRecorder()
		router.Handler().ServeHTTP(rec, httptest.NewRequest("HEAD", "/v1/locate?ip=10.3.0.1", nil))
		if st := router.Status(); rec.Code != http.StatusOK || st.Retries != 1 || st.Replicas[1].Failures != 0 {
			t.Fatalf("HEAD answered %d, status %+v", rec.Code, st)
		}
	})
}

// cannedReplica is a whole fleet as one RoundTripper: every member is
// healthy at epoch 1 and answers anything but /healthz with reply,
// with or without a declared length.
type cannedReplica struct {
	reply    []byte
	length   string
	declared bool
}

func (c *cannedReplica) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: -1, Request: req}
	if req.URL.Path == "/healthz" {
		resp.Body = io.NopCloser(strings.NewReader(`{"status":"ok","epoch":1}`))
		return resp, nil
	}
	resp.Header.Set("Content-Type", geoserve.WireContentType)
	resp.Header.Set("X-Geo-Epoch", "1")
	if c.declared {
		resp.Header.Set("Content-Length", c.length)
		resp.ContentLength = int64(len(c.reply))
	}
	resp.Body = io.NopCloser(bytes.NewReader(c.reply))
	return resp, nil
}

// sinkWriter is a ResponseWriter that keeps the last body in a buffer
// it reuses, so it adds no allocation that grows with the reply.
type sinkWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *sinkWriter) Header() http.Header  { return w.header }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestRouterForwardAllocsFlat pins that the forward path moves a
// reply through one pooled, length-sized buffer: a forwarded bin POST
// makes the same number of allocations for a 1 KB and a 147 KB reply
// and allocates a small fraction of the reply's bytes, a reply with no
// declared length relays byte-identically through the same code, and a
// buffer that grew past the retention bound is not kept — each such
// reply pays for its own.
func TestRouterForwardAllocsFlat(t *testing.T) {
	request := geoserve.AppendWireBatchRequest(nil, 0, wireIPs(t, 24))
	// forwarded returns the allocation count and bytes per forwarded
	// POST once the pool is warm, checking every relay byte for byte.
	forwarded := func(size int, declared bool) (allocs float64, bytesPerRun uint64) {
		reply := make([]byte, size)
		for i := range reply {
			reply[i] = byte(i * 7)
		}
		canned := &cannedReplica{reply: reply, length: strconv.Itoa(size), declared: declared}
		router := NewRouter(RouterConfig{Replicas: []string{"http://rep0"}, Client: &http.Client{Transport: canned}})
		router.ProbeOnce(context.Background())
		h := router.Handler()
		body := bytes.NewReader(request)
		w := &sinkWriter{header: http.Header{}, body: make([]byte, 0, size)}
		const runs = 50
		var before, after runtime.MemStats
		post := func() {
			body.Seek(0, io.SeekStart)
			w.code, w.body = 0, w.body[:0]
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/locate/bin", body))
			if w.code != http.StatusOK || !bytes.Equal(w.body, reply) {
				t.Fatalf("%d-byte reply (declared %v): relayed %d with %d bytes", size, declared, w.code, len(w.body))
			}
		}
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, post)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}

	small, _ := forwarded(1<<10, true)
	frame, frameBytes := forwarded(147<<10, true)
	if small != frame && !raceEnabled {
		t.Errorf("%v allocs for a 1 KB reply, %v for a 147 KB one: want the same", small, frame)
	}
	if frameBytes > 147<<10/4 && !raceEnabled {
		t.Errorf("a 147 KB reply allocates %d bytes per request: its buffer is not reused", frameBytes)
	}
	forwarded(147<<10, false)
	if _, big := forwarded(maxPooledBody+1, true); big < maxPooledBody {
		t.Errorf("a reply over the retention bound allocates %d bytes per request: its buffer was pooled", big)
	}
}
