package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest/csrfile"
)

// FuzzCreateJob sends arbitrary bodies to POST /v1/jobs on a daemon with
// one tiny registered graph. Whatever the body, the daemon answers with
// no 5xx and no panic (a panicking handler drops the connection, which
// fails the request), and every 4xx body is a JSON object holding one
// string field, "error". Accepted asynchronous jobs are cancelled at
// once, so the queue never fills.
func FuzzCreateJob(f *testing.F) {
	e := newTestEnv(f, Options{Workers: 2, QueueDepth: 1024})
	id := e.register(f, []byte(k4)).ID
	for _, seed := range []string{
		fmt.Sprintf(`{"graph":%q,"wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"mode":"list","limit":2,"order":"uniform","seed":3,"wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"method":"E2","order":"descending"}`, id),
		fmt.Sprintf(`{"graph":%q,"timeout_ms":1e13,"wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"timeout_ms":-1}`, id),
		fmt.Sprintf(`{"graph":%q,"parts":%d,"workers":2,"mode":"list","wait":true}`, id, MaxParts+1),
		fmt.Sprintf(`{"graph":%q,"kernel":"merge","wait":true}`, id),
		fmt.Sprintf(`{"graph":%q,"mode":"list","lim`, id),
		`{"graph":"sha256:0000","method":"E9"}`,
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, out := e.do(t, "POST", "/v1/jobs", body)
		switch {
		case code >= 500:
			t.Fatalf("status %d for body %q: %s", code, body, out)
		case code >= 400:
			var resp map[string]json.RawMessage
			var msg string
			if err := json.Unmarshal(out, &resp); err != nil || len(resp) != 1 ||
				json.Unmarshal(resp["error"], &msg) != nil {
				t.Fatalf("status %d body %q is not {\"error\": string} (request %q)", code, out, body)
			}
		case code == http.StatusAccepted:
			var v JobView
			if err := json.Unmarshal(out, &v); err != nil {
				t.Fatalf("202 body %q: %v", out, err)
			}
			if code, out := e.do(t, "DELETE", "/v1/jobs/"+v.ID, nil); code != http.StatusOK {
				t.Fatalf("cancel %s: status %d: %s", v.ID, code, out)
			}
		}
	})
}

// FuzzRegisterGraph sends arbitrary bodies to POST /v1/graphs through
// the handler, each once with its length declared and once as a body
// of unknown length. Whatever the body, the answer is a 201 or a 4xx,
// never a 5xx or a panic; a 201 names the graph by the sha256 of the
// body; and the same body sent again is a 200 with cached true and the
// same id. Seeds: the ingest fixtures, the ingest fuzz corpora and a
// valid TRCSRF image.
func FuzzRegisterGraph(f *testing.F) {
	s := newTestEnv(f, Options{Workers: 1, CacheBytes: 32 << 20, MaxUploadBytes: 1 << 16}).srv
	var seeds [][]byte
	fixtures, _ := filepath.Glob(filepath.Join("..", "ingest", "testdata", "*.*"))
	corpora, _ := filepath.Glob(filepath.Join("..", "ingest", "testdata", "fuzz", "*", "*"))
	for _, path := range append(fixtures, corpora...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if strings.Contains(path, "fuzz") {
			data = corpusBytes(f, path, data)
		}
		seeds = append(seeds, data)
	}
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}}, false)
	if err != nil {
		f.Fatal(err)
	}
	var img bytes.Buffer
	if err := csrfile.Write(&img, g); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, img.Bytes(), []byte(k4), nil)
	for _, seed := range seeds {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, body []byte, sized bool) {
		if longDigitRun(body, 7) {
			t.Skip("node IDs or counts above 10^6: the CSR offsets array is allocation-bound")
		}
		rec := serve(s, "/v1/graphs", body, sized)
		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		case rec.Code >= 400:
			return
		case rec.Code != http.StatusCreated && rec.Code != http.StatusOK:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var first graphInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
			t.Fatalf("status %d body %q: %v", rec.Code, rec.Body, err)
		}
		if first.ID != contentID(body) {
			t.Fatalf("registered %q as %s, want %s", body, first.ID, contentID(body))
		}
		rec = serve(s, "/v1/graphs", body, !sized)
		var again graphInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil || rec.Code != http.StatusOK ||
			!again.Cached || again.ID != first.ID {
			t.Fatalf("re-registering %q: status %d %s, want 200 cached %s", body, rec.Code, rec.Body, first.ID)
		}
	})
}

// corpusBytes decodes the one []byte argument of a Go fuzz corpus file.
func corpusBytes(tb testing.TB, path string, data []byte) []byte {
	tb.Helper()
	_, lit, _ := strings.Cut(string(data), "\n")
	lit = strings.TrimSpace(lit)
	if !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		tb.Fatalf("%s: not a one-[]byte corpus file", path)
	}
	b, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// longDigitRun reports a run of n+ consecutive ASCII digits: a body
// that could name a node ID or declare a node count of 10^(n-1) or
// more, whose CSR offsets array the parse would allocate.
func longDigitRun(data []byte, n int) bool {
	run := 0
	for _, b := range data {
		if '0' <= b && b <= '9' {
			if run++; run >= n {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}
