package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"geonet/internal/obs"
)

// TestDrainCompletesUnderStalledClient pins the drain guarantee the
// connection timeouts buy: a client that sends half a request line and
// then stalls holds its connection active, and without
// ReadHeaderTimeout http.Server.Shutdown would wait on it until the
// drain deadline. With the timeout armed, Shutdown completes as soon
// as the stalled connection times out.
func TestDrainCompletesUnderStalledClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}), httpTimeouts{readHeader: 200 * time.Millisecond, read: time.Second, idle: time.Second})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// A healthy request completes, proving the server is up.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The stalled client: half a request line, then silence. The server
	// marks the connection active and starts the header-read clock.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/loc")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server read the partial bytes

	// Shutdown must finish once ReadHeaderTimeout reaps the staller —
	// well before the 5s drain deadline a misbehaving client would
	// otherwise burn whole.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not complete under a stalled client: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("Shutdown took %v; the stalled connection should be reaped at ReadHeaderTimeout (200ms)", waited)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestDebugListenerReapsStalledClient pins that the -debug-addr
// listener bounds connection phases like the serving one: a client
// that sends half a request line to the pprof/metrics port has its
// connection closed at the read-header timeout instead of pinning it
// forever.
func TestDebugListenerReapsStalledClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := debugServer("", obs.NewObservability("test"),
		httpTimeouts{readHeader: 200 * time.Millisecond, read: time.Minute, idle: time.Minute})
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	// The server answers the timed-out request (or not) and closes the
	// connection; reading to EOF must end well before the 5s deadline.
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("stalled connection closed after %v; want about the 200ms read-header timeout", waited)
	}
}

// TestNewHTTPServerTimeouts pins that the flag-fed timeouts actually
// land on the server every mode listens with.
func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", nil, httpTimeouts{
		readHeader: 7 * time.Second,
		read:       3 * time.Minute,
		idle:       time.Minute,
	})
	if srv.ReadHeaderTimeout != 7*time.Second || srv.ReadTimeout != 3*time.Minute || srv.IdleTimeout != time.Minute {
		t.Fatalf("timeouts not applied: %+v", srv)
	}
}
