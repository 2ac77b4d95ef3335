package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer makes the daemon's log writer safe to read while run()
// is still writing from its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, serves a
// register→count round trip, then shuts it down via context cancel
// (the signal path) and checks the drain messages. It passes the
// ignored -upload-dir, which must still parse.
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-upload-dir", t.TempDir()}, out)
	}()

	// The listen line appears once the port is bound.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "trid listening on "); ok {
				addr = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/graphs", "text/plain",
		strings.NewReader("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	var gi struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || gi.ID == "" {
		t.Fatalf("register: status %d id %q", resp.StatusCode, gi.ID)
	}

	body, _ := json.Marshal(map[string]any{"graph": gi.ID, "method": "E1", "wait": true})
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Status    string `json:"status"`
		Triangles int64  `json:"triangles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Status != "done" || v.Triangles != 4 {
		t.Fatalf("count job: %+v", v)
	}

	// Partitioned job: a parts>1, workers>1 block-triple sweep whose
	// view carries the partition meters.
	body, _ = json.Marshal(map[string]any{"graph": gi.ID, "parts": 2, "workers": 2, "wait": true})
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pv struct {
		Status    string `json:"status"`
		Triangles int64  `json:"triangles"`
		Parts     int    `json:"parts"`
		Passes    int64  `json:"passes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pv.Status != "done" || pv.Triangles != 4 || pv.Parts != 2 || pv.Passes == 0 {
		t.Fatalf("partitioned job: %+v", pv)
	}

	cancel() // the SIGINT path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	text := out.String()
	if !strings.Contains(text, "trid draining") || !strings.Contains(text, "trid stopped") {
		t.Fatalf("missing drain messages:\n%s", text)
	}
}

// waitLogAddr polls the log for a line starting with prefix and
// returns the remainder (the bound address).
func waitLogAddr(t *testing.T, out *syncBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("log line %q never appeared; output:\n%s", prefix, out.String())
	return ""
}

// TestDebugAddrServesPprof boots the daemon with both listeners on
// ephemeral ports and checks that the debug listener serves
// /debug/pprof/ while the API listener does not.
func TestDebugAddrServesPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		}, out)
	}()
	apiAddr := waitLogAddr(t, out, "trid listening on ")
	dbgAddr := waitLogAddr(t, out, "trid debug (pprof) listening on ")

	get := func(addr, path string) int {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(apiAddr, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz on API addr: status %d, want 200", code)
	}
	if code := get(dbgAddr, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index on debug addr: status %d, want 200", code)
	}
	if code := get(dbgAddr, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline on debug addr: status %d, want 200", code)
	}
	// The profiling surface must stay off the API listener.
	if code := get(apiAddr, "/debug/pprof/"); code == http.StatusOK {
		t.Error("pprof exposed on the API address")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestRetiredUploadRoutes: the chunked-upload protocol is gone, so
// each of its four routes is a 404 or 405, and the -upload-dir the
// daemon still accepts stays empty.
func TestRetiredUploadRoutes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spool := t.TempDir()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-upload-dir", spool}, out) }()
	base := "http://" + waitLogAddr(t, out, "trid listening on ")

	for _, r := range []struct{ method, path string }{
		{"POST", "/v1/graphs/upload"},
		{"PUT", "/v1/graphs/upload/a1b2c3d4e5f60718"},
		{"POST", "/v1/graphs/upload/a1b2c3d4e5f60718/commit"},
		{"DELETE", "/v1/graphs/upload/a1b2c3d4e5f60718"},
	} {
		req, err := http.NewRequest(r.method, base+r.path, strings.NewReader("0 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 404 or 405", r.method, r.path, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	ents, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("-upload-dir is not ignored: it holds %v", ents)
	}
}

// TestSlowHeaderClientDropped: a client that trickles a partial
// request header is disconnected once readHeaderTimeout expires —
// trickling does not extend the deadline — while a concurrent normal
// request on another connection is served meanwhile.
func TestSlowHeaderClientDropped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, out) }()
	addr := waitLogAddr(t, out, "trid listening on ")

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: trid\r\n"); err != nil {
		t.Fatal(err)
	}
	// Trickle one header byte at a time, never finishing the header.
	stopTrickle := make(chan struct{})
	defer close(stopTrickle)
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopTrickle:
				return
			case <-tick.C:
				if _, err := slow.Write([]byte("X")); err != nil {
					return
				}
			}
		}
	}()

	// The slow client must not block anyone else.
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("normal request while a slow client is connected: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	// The server closes the slow connection after the header timeout,
	// well before our own read deadline: bare, after a 4xx line (which
	// one depends on where the header read was cut), or with a reset
	// when trickled bytes arrive after the close.
	_ = slow.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	got, err := io.ReadAll(slow)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slow client still connected after %v (header timeout %v)", elapsed, readHeaderTimeout)
	}
	if len(got) > 0 && !bytes.HasPrefix(got, []byte("HTTP/1.1 4")) {
		t.Fatalf("slow client got %q, want a 4xx or a bare close", got)
	}
	if elapsed < readHeaderTimeout-500*time.Millisecond {
		t.Errorf("slow client dropped after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-addr"}, &syncBuffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// trid has no multi-node mode and no disk spill store, so these are
	// unknown flags.
	for _, f := range []string{"-peers", "-role", "-set-cache-bytes", "-spill-dir"} {
		if err := run(context.Background(), []string{f, "x"}, &syncBuffer{}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s x: err = %v, want unknown flag", f, err)
		}
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, &syncBuffer{}); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}
