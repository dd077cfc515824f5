package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"geonet/internal/geoserve"
)

// TestFleetRealProcesses runs the replicated fleet as four geoserved
// processes on loopback — a churning, publishing builder, two replicas
// and a router — and drives it the way an operator would. Lookups
// flow through the router over JSON and the binary protocol while the
// builder churns; a rebuild to seed 2 must stay the served world
// across later churn steps, label included; one replica is drained
// under traffic with zero failed lookups; and every process exits 0
// after logging a clean drain.
func TestFleetRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds geoserved and runs four processes")
	}
	bin := filepath.Join(t.TempDir(), "geoserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	builderAddr, r1Addr, r2Addr, routerAddr := freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)
	builderURL, routerURL := "http://"+builderAddr, "http://"+routerAddr

	builder := startProc(t, bin, "builder", "-addr", builderAddr, "-scale", "0.02",
		"-publish", "-churn", "-churn-interval", churnEvery.String(), "-quiet")
	waitFor(t, "the builder to serve", time.Minute, func() bool {
		_, ok := healthz(builderURL)
		return ok
	})
	r1 := startProc(t, bin, "replica 1", "-addr", r1Addr, "-replica-of", builderURL)
	r2 := startProc(t, bin, "replica 2", "-addr", r2Addr, "-replica-of", builderURL)
	router := startProc(t, bin, "router", "-addr", routerAddr, "-router", "http://"+r1Addr+",http://"+r2Addr)
	waitFor(t, "the router to see two healthy replicas", time.Minute, func() bool {
		var h struct {
			HealthyReplicas int `json:"healthy_replicas"`
		}
		return getJSON(routerURL+"/healthz", &h) && h.HealthyReplicas == 2
	})

	ips := lookupAddrs(t, builderURL)
	var lookups, failed atomic.Int64
	var firstErr sync.Once
	fail := func(format string, args ...any) {
		failed.Add(1)
		firstErr.Do(func() { t.Errorf("first failed lookup: "+format, args...) })
	}
	stop := make(chan struct{})
	var clients sync.WaitGroup
	var halt sync.Once // a failed wait leaves the clients running until cleanup
	stopClients := func() { halt.Do(func() { close(stop) }); clients.Wait() }
	t.Cleanup(stopClients)
	client := &http.Client{Timeout: 10 * time.Second}
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := c; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				ip := geoserve.FormatIPv4(ips[i%len(ips)])
				status, body, err := roundTrip(client, "GET", routerURL+"/v1/locate?ip="+ip, nil)
				if err != nil || status != http.StatusOK {
					fail("GET %s: status %d, %v: %s", ip, status, err, body)
					continue
				}
				lookups.Add(1)
			}
		}()
	}
	clients.Add(1)
	go func() {
		defer clients.Done()
		batch := ips[:min(len(ips), 512)]
		frame := geoserve.AppendWireBatchRequest(nil, geoserve.WireMapperDefault, batch)
		for {
			select {
			case <-stop:
				return
			default:
			}
			status, body, err := roundTrip(client, "POST", routerURL+"/v1/locate/bin", frame)
			if err != nil || status != http.StatusOK {
				fail("POST /v1/locate/bin: status %d, %v: %.200s", status, err, body)
				continue
			}
			if _, _, answers, err := geoserve.DecodeWireBatch(body); err != nil || len(answers) != len(batch) {
				fail("POST /v1/locate/bin: %d answers for %d addresses, %v", len(answers), len(batch), err)
				continue
			}
			lookups.Add(int64(len(batch)))
		}
	}()

	// A rebuild replaces the world the churn stream extends: once the
	// builder serves seed 2 it keeps serving seed 2, labelled, however
	// many churn steps follow.
	time.Sleep(2 * churnEvery)
	if status, body, err := roundTrip(client, "POST", builderURL+"/v1/admin/rebuild?seed=2", nil); err != nil || status != http.StatusAccepted {
		t.Fatalf("POST /v1/admin/rebuild?seed=2: status %d, %v: %s", status, err, body)
	}
	var rebuilt geoserve.SnapshotInfo
	waitFor(t, "the builder to serve seed 2", time.Minute, func() bool {
		info, ok := healthz(builderURL)
		rebuilt = info
		return ok && info.Build.Seed == 2
	})
	time.Sleep(5 * churnEvery)
	if info, ok := healthz(builderURL); !ok || info.Build.Seed != 2 || info.Build.Label != "seed2/scale0.02" || info.Digest == rebuilt.Digest {
		t.Errorf("%d churn intervals after the rebuild the builder serves %+v (ok %v), want a churned seed-2 epoch labelled seed2/scale0.02 (rebuilt digest %.12s)",
			5, info.Build, ok, rebuilt.Digest)
	}

	// Drain one replica under traffic: the router routes around it.
	r1.stop(t)
	time.Sleep(3 * churnEvery)
	stopClients()
	if n := lookups.Load(); n == 0 || failed.Load() != 0 {
		t.Errorf("%d lookups answered, %d failed; want some and none failed", n, failed.Load())
	}
	t.Logf("%d lookups answered through the router, %d failed", lookups.Load(), failed.Load())
	router.stop(t)
	r2.stop(t)
	builder.stop(t)
}

// churnEvery is the fleet builder's -churn-interval.
const churnEvery = 300 * time.Millisecond

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// proc is one geoserved child process. log collects its output; read
// it only after done is closed.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  bytes.Buffer
	done chan struct{}
	err  error // Wait's result, once done is closed
}

// startProc starts bin with args. Cleanup kills the process if it is
// still running and, when the test failed, prints its log.
func startProc(t *testing.T, bin, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("%s log:\n%s", p.name, p.log.String())
		}
	})
	return p
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and
// "drained clean" in the log.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after SIGTERM", p.name)
	}
	if p.err != nil {
		t.Errorf("%s exited: %v", p.name, p.err)
	}
	if !strings.Contains(p.log.String(), "drained clean") {
		t.Errorf("%s did not log a clean drain", p.name)
	}
}

// waitFor polls cond every 50 ms until it holds or timeout passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", timeout, what)
		}
	}
}

// roundTrip sends one request and reads the whole reply.
func roundTrip(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", geoserve.WireContentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON decodes a 200 reply from url into v.
func getJSON(url string, v any) bool {
	status, body, err := roundTrip(http.DefaultClient, "GET", url, nil)
	return err == nil && status == http.StatusOK && json.Unmarshal(body, v) == nil
}

// healthz reads a cluster's /healthz snapshot. Each call decodes into
// a fresh value: the build label is omitempty, so a value reused
// across polls would keep a label the server dropped.
func healthz(base string) (geoserve.SnapshotInfo, bool) {
	var h struct {
		Snapshot geoserve.SnapshotInfo `json:"snapshot"`
	}
	ok := getJSON(base+"/healthz", &h)
	return h.Snapshot, ok
}

// lookupAddrs returns one address in each of the first 4096 /24s the
// builder serves, at varying host offsets.
func lookupAddrs(t *testing.T, builderURL string) []uint32 {
	t.Helper()
	var body struct {
		Prefixes []string `json:"prefixes"`
	}
	if !getJSON(builderURL+"/v1/prefixes", &body) || len(body.Prefixes) == 0 {
		t.Fatal("GET /v1/prefixes: no prefixes")
	}
	var ips []uint32
	for i, p := range body.Prefixes[:min(len(body.Prefixes), 4096)] {
		base, err := geoserve.ParseIPv4(strings.TrimSuffix(p, "/24"))
		if err != nil {
			t.Fatalf("prefix %q: %v", p, err)
		}
		ips = append(ips, base+uint32(i*37%254)+1)
	}
	return ips
}
