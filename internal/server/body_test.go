package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"trilist/internal/graph"
	"trilist/internal/testkit"
)

// serve runs one POST through the handler in-process, with body of
// declared length when sized and of unknown length (as a chunked
// upload arrives) otherwise.
func serve(s *Server, path string, body []byte, sized bool) *httptest.ResponseRecorder {
	var r io.Reader = bytes.NewReader(body)
	if !sized {
		r = struct{ io.Reader }{r}
	}
	req := httptest.NewRequest("POST", path, r)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// contentID is the registration id of body.
func contentID(body []byte) string {
	sum := sha256.Sum256(body)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// TestRegisterGraphChunkedUpload: a body sent over the wire without a
// Content-Length (chunked transfer encoding) registers under the same
// id as the same body sent with one, and as the same graph.
func TestRegisterGraphChunkedUpload(t *testing.T) {
	body := testkit.ERGraphText(t, 2000, 8000, 5)
	register := func(chunked bool) (graphInfo, *graph.Graph) {
		// The daemon behind a handler that reports the declared length
		// and transfer coding each request arrives with.
		srv := New(Options{})
		type framing struct {
			length int64
			coding []string
		}
		seen := make(chan framing, 1)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seen <- framing{r.ContentLength, r.TransferEncoding}
			srv.Handler().ServeHTTP(w, r)
		}))
		defer ts.Close()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = struct{ io.Reader }{rd} // hides the length from the client
		}
		resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var gi graphInfo
		if err := json.NewDecoder(resp.Body).Decode(&gi); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("chunked=%v: status %d, %+v, %v", chunked, resp.StatusCode, gi, err)
		}
		want := framing{int64(len(body)), nil}
		if chunked {
			want = framing{-1, []string{"chunked"}}
		}
		if got := <-seen; got.length != want.length || !slices.Equal(got.coding, want.coding) {
			t.Fatalf("chunked=%v: request arrived as %+v, want %+v", chunked, got, want)
		}
		g, ok := srv.reg.Get(gi.ID)
		if !ok {
			t.Fatalf("chunked=%v: graph not resident", chunked)
		}
		return gi, g
	}
	sized, gs := register(false)
	chunked, gc := register(true)
	if sized.ID != contentID(body) || sized != chunked {
		t.Fatalf("sized upload registered %+v, chunked %+v; want id %s", sized, chunked, contentID(body))
	}
	if !testkit.GraphsEqual(gs, gc) {
		t.Fatal("sized and chunked uploads built different graphs")
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += k
	return k, err
}

// TestRegisterGraphDeclaredLengthTooLarge: a Content-Length above
// MaxUploadBytes is a 413 before any body byte is read, and the reply
// closes the connection instead of draining the body.
func TestRegisterGraphDeclaredLengthTooLarge(t *testing.T) {
	e := newTestEnv(t, Options{MaxUploadBytes: 64})
	body := &countingReader{r: strings.NewReader(strings.Repeat("0 1\n", 100))}
	req := httptest.NewRequest("POST", "/v1/graphs", body)
	req.ContentLength = 400
	rec := httptest.NewRecorder()
	e.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	if body.n != 0 {
		t.Fatalf("%d body bytes read before the 413, want 0", body.n)
	}
	if rec.Header().Get("Connection") != "close" {
		t.Fatalf("413 reply does not close the connection: %v", rec.Header())
	}
	// At the limit exactly, the body is read and registered.
	k := []byte(k4)
	e2 := newTestEnv(t, Options{MaxUploadBytes: int64(len(k))})
	if rec := serve(e2.srv, "/v1/graphs", k, true); rec.Code != http.StatusCreated {
		t.Fatalf("body at the limit: status %d: %s", rec.Code, rec.Body)
	}
}

// TestRegisterGraphShortBody: a body that ends before its declared
// length is the client's malformed request, a 400, and registers
// nothing.
func TestRegisterGraphShortBody(t *testing.T) {
	e := newTestEnv(t, Options{})
	req := httptest.NewRequest("POST", "/v1/graphs", strings.NewReader(k4))
	req.ContentLength = int64(len(k4)) + 10
	rec := httptest.NewRecorder()
	e.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected EOF") {
		t.Fatalf("short body: status %d, want 400: %s", rec.Code, rec.Body)
	}
	// The same over the wire: the client half-closes its connection
	// after 4 of 14 declared bytes.
	conn, err := net.Dial("tcp", e.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/graphs HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n0 1\n")
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short body over the wire: status %d, want 400", resp.StatusCode)
	}
	if e.srv.reg.Len() != 0 {
		t.Fatalf("%d graphs resident after a short body, want 0", e.srv.reg.Len())
	}
}

// TestRegisterGraphEmptyBody: an empty body, sized or chunked, is the
// empty SNAP edge list: a 0-node graph under the digest of no bytes.
func TestRegisterGraphEmptyBody(t *testing.T) {
	e := newTestEnv(t, Options{})
	for i, sized := range []bool{true, false} {
		rec := serve(e.srv, "/v1/graphs", nil, sized)
		want := []int{http.StatusCreated, http.StatusOK}[i]
		var gi graphInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &gi); err != nil || rec.Code != want {
			t.Fatalf("sized=%v: status %d, want %d: %s", sized, rec.Code, want, rec.Body)
		}
		if gi.ID != contentID(nil) || gi.Nodes != 0 || gi.Edges != 0 || gi.Cached != (i == 1) {
			t.Fatalf("sized=%v: registered %+v", sized, gi)
		}
	}
}
