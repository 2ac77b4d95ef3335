package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/testkit"
)

// TestRegisterGoldenGraphs registers the two real-graph fixtures
// through POST /v1/graphs with a pinned format, runs count jobs, and
// cross-validates the triangle counts against the brute-force lister —
// the end-to-end "real graph in, right answer out" check of the
// serving path.
func TestRegisterGoldenGraphs(t *testing.T) {
	cases := []struct {
		file, format string
		triangles    int64
	}{
		{"karate.mtx", "mtx", 45},
		{"florentine.txt", "snap", 3},
	}
	e := newTestEnv(t, Options{})
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "ingest", "testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			code, out := e.do(t, "POST", "/v1/graphs?format="+tc.format, data)
			if code != http.StatusCreated {
				t.Fatalf("register: status %d: %s", code, out)
			}
			var gi graphInfo
			if err := json.Unmarshal(out, &gi); err != nil {
				t.Fatal(err)
			}

			g, _, err := ingest.Parse(data, 0, ingest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := testkit.BruteForce(g, nil).Triangles
			if want != tc.triangles {
				t.Fatalf("fixture drifted: brute force says %d, want %d", want, tc.triangles)
			}
			code, jv := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
			if code != http.StatusOK || jv.Status != "done" {
				t.Fatalf("job: %d %+v", code, jv)
			}
			if jv.Triangles != want {
				t.Fatalf("server counted %d triangles, brute force %d", jv.Triangles, want)
			}
		})
	}
}

// TestCSRDirPersistAndWarmStart registers a graph with persistence on,
// then boots a second server over the same directory and verifies the
// graph is resident (mmap-loaded) and serves the correct count with no
// re-registration.
func TestCSRDirPersistAndWarmStart(t *testing.T) {
	csrDir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "ingest", "testdata", "florentine.txt"))
	if err != nil {
		t.Fatal(err)
	}

	e1 := newTestEnv(t, Options{CSRDir: csrDir})
	gi := e1.register(t, data)
	ents, err := os.ReadDir(csrDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".csrf") {
		t.Fatalf("no persisted CSR file: %v", ents)
	}
	wantName := strings.TrimPrefix(gi.ID, "sha256:") + ".csrf"
	if ents[0].Name() != wantName {
		t.Fatalf("persisted as %s, want %s", ents[0].Name(), wantName)
	}

	// Second daemon, same directory: warm start restores the graph.
	e2 := newTestEnv(t, Options{CSRDir: csrDir})
	loaded, err := e2.srv.LoadCSRDir()
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if loaded != 1 {
		t.Fatalf("warm start loaded %d graphs, want 1", loaded)
	}
	code, jv := e2.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if code != http.StatusOK || jv.Triangles != 3 {
		t.Fatalf("job on warm-started graph: %d %+v", code, jv)
	}

	// A corrupted file is skipped with an error, never fatal.
	if err := os.WriteFile(filepath.Join(csrDir, "beef.csrf"), []byte("TRCSRF garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := newTestEnv(t, Options{CSRDir: csrDir})
	loaded, err = e3.srv.LoadCSRDir()
	if err == nil {
		t.Fatal("corrupt file loaded without error")
	}
	if loaded != 1 {
		t.Fatalf("corrupt file: loaded %d, want 1 good graph", loaded)
	}

	// Re-registering the same content must not rewrite the file.
	before, err := os.Stat(filepath.Join(csrDir, wantName))
	if err != nil {
		t.Fatal(err)
	}
	e1.register(t, data)
	after, err := os.Stat(filepath.Join(csrDir, wantName))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("cached re-registration rewrote the persisted file")
	}

	// The persisted file is a valid standalone TRCSRF: the CLI loaders
	// (ingest.LoadFile) can mmap it directly.
	ld, err := ingest.LoadFile(filepath.Join(csrDir, wantName), 0, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if got := testkit.BruteForce(ld.Graph, nil).Triangles; got != 3 {
		t.Fatalf("persisted file has %d triangles, want 3", got)
	}
	var g *graph.Graph = ld.Graph
	if g.NumNodes() != 15 || g.NumEdges() != 20 {
		t.Fatalf("persisted graph n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

// TestLoadCSRDirSweepsTempFiles: a writer killed between creating its
// temp file and the rename leaves a ".<hash>.csrf.tmp*" file that warm
// start never loads. LoadCSRDir removes it, and still serves the good
// file beside it as the exact graph that was registered.
func TestLoadCSRDirSweepsTempFiles(t *testing.T) {
	csrDir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "ingest", "testdata", "karate.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	e1 := newTestEnv(t, Options{CSRDir: csrDir})
	gi := e1.register(t, data)
	want, ok := e1.srv.reg.Get(gi.ID)
	if !ok {
		t.Fatal("registered graph not resident")
	}
	good := filepath.Join(csrDir, strings.TrimPrefix(gi.ID, "sha256:")+".csrf")
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-write: half the image under the temp name.
	stale := filepath.Join(csrDir, "."+filepath.Base(good)+".tmp123456")
	if err := os.WriteFile(stale, img[:len(img)/2], 0o600); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEnv(t, Options{CSRDir: csrDir})
	loaded, err := e2.srv.LoadCSRDir()
	if err != nil || loaded != 1 {
		t.Fatalf("warm start: loaded %d, err %v; want 1 graph, no error", loaded, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file not removed (stat err: %v)", err)
	}
	got, ok := e2.srv.reg.Get(gi.ID)
	if !ok || !testkit.GraphsEqual(got, want) {
		t.Fatalf("warm-started graph resident=%v, not the registered graph", ok)
	}
	code, jv := e2.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if code != http.StatusOK || jv.Triangles != 45 {
		t.Fatalf("job on warm-started graph: %d %+v", code, jv)
	}
}

// TestCSRDirDamagedFilesSkippedAndCounted: a restart over a CSR
// directory with one truncated and one corrupted image skips both,
// counts them in trid_graphs_warm_skipped_total, and serves the intact
// graph as exactly the graph that was registered. A write that fails
// counts in trid_graphs_persist_failures_total and leaves the
// registration resident.
func TestCSRDirDamagedFilesSkippedAndCounted(t *testing.T) {
	csrDir := t.TempDir()
	e1 := newTestEnv(t, Options{CSRDir: csrDir})
	var ids []string
	for _, body := range [][]byte{
		[]byte(k4),
		testkit.ERGraphText(t, 60, 200, 1),
		testkit.ERGraphText(t, 80, 300, 2),
	} {
		ids = append(ids, e1.register(t, body).ID)
	}
	if n := metricValue(t, e1.metricsText(t), "trid_graphs_persisted_total"); n != 3 {
		t.Fatalf("persisted = %d, want 3", n)
	}
	want, ok := e1.srv.reg.Get(ids[0])
	if !ok {
		t.Fatal("registered graph not resident")
	}
	file := func(id string) string {
		return filepath.Join(csrDir, strings.TrimPrefix(id, "sha256:")+".csrf")
	}
	truncated, err := os.ReadFile(file(ids[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file(ids[1]), truncated[:len(truncated)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	corrupted, err := os.ReadFile(file(ids[2]))
	if err != nil {
		t.Fatal(err)
	}
	corrupted[len(corrupted)-1] ^= 0xff // last neighbor ID: payload CRC mismatch
	if err := os.WriteFile(file(ids[2]), corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEnv(t, Options{CSRDir: csrDir})
	loaded, err := e2.srv.LoadCSRDir()
	if loaded != 1 || err == nil {
		t.Fatalf("warm start: loaded %d, err %v; want 1 graph and an error naming the damaged files", loaded, err)
	}
	for _, id := range ids[1:] {
		if !strings.Contains(err.Error(), filepath.Base(file(id))) {
			t.Errorf("warm-start error %q does not name %s", err, filepath.Base(file(id)))
		}
		if _, ok := e2.srv.reg.Get(id); ok {
			t.Errorf("damaged graph %s is resident", id)
		}
	}
	text := e2.metricsText(t)
	if n := metricValue(t, text, "trid_graphs_warm_skipped_total"); n != 2 {
		t.Errorf("warm skipped = %d, want 2", n)
	}
	if n := metricValue(t, text, "trid_graphs_warm_loaded_total"); n != 1 {
		t.Errorf("warm loaded = %d, want 1", n)
	}
	got, ok := e2.srv.reg.Get(ids[0])
	if !ok || !testkit.GraphsEqual(got, want) {
		t.Fatalf("intact graph resident=%v, not the registered graph", ok)
	}
	if code, jv := e2.postJob(t, JobSpec{Graph: ids[0], Method: "E1", Wait: true}); code != http.StatusOK || jv.Triangles != 4 {
		t.Fatalf("job on the intact graph: %d %+v", code, jv)
	}

	// A CSR "directory" that is a regular file: every write fails, the
	// registration stands.
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := newTestEnv(t, Options{CSRDir: notDir})
	gi := e3.register(t, []byte(k4))
	if _, ok := e3.srv.reg.Get(gi.ID); !ok {
		t.Fatal("registration lost after a failed persist")
	}
	text = e3.metricsText(t)
	if n := metricValue(t, text, "trid_graphs_persist_failures_total"); n != 1 {
		t.Errorf("persist failures = %d, want 1", n)
	}
	if n := metricValue(t, text, "trid_graphs_persisted_total"); n != 0 {
		t.Errorf("persisted = %d, want 0", n)
	}
}

// TestLoadCSRDirSkipsRenamedImage: a persisted image records the
// digest it was registered under, so a copy under another digest's
// name is skipped and counted at warm start instead of being served
// under an ID its content does not have, while the original is still
// served bit for bit. An image with a zero digest (gengraph's, or one
// written before the field) still loads under its name.
func TestLoadCSRDirSkipsRenamedImage(t *testing.T) {
	csrDir := t.TempDir()
	e1 := newTestEnv(t, Options{CSRDir: csrDir})
	gi := e1.register(t, []byte(k4))
	want, ok := e1.srv.reg.Get(gi.ID)
	if !ok {
		t.Fatal("registered graph not resident")
	}
	img, err := os.ReadFile(filepath.Join(csrDir, strings.TrimPrefix(gi.ID, "sha256:")+".csrf"))
	if err != nil {
		t.Fatal(err)
	}
	copied := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(csrDir, copied+".csrf"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	var zero bytes.Buffer
	if err := csrfile.Write(&zero, want); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(csrDir, legacy+".csrf"), zero.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEnv(t, Options{CSRDir: csrDir})
	loaded, err := e2.srv.LoadCSRDir()
	if loaded != 2 || err == nil || !strings.Contains(err.Error(), copied+".csrf") {
		t.Fatalf("warm start: loaded %d, err %v; want 2 graphs and an error naming the copy", loaded, err)
	}
	if n := metricValue(t, e2.metricsText(t), "trid_graphs_warm_skipped_total"); n != 1 {
		t.Errorf("warm skipped = %d, want 1", n)
	}
	if code, _ := e2.postJob(t, JobSpec{Graph: "sha256:" + copied, Method: "E1", Wait: true}); code != http.StatusNotFound {
		t.Errorf("job on the copy's id: status %d, want 404", code)
	}
	for _, id := range []string{gi.ID, "sha256:" + legacy} {
		got, ok := e2.srv.reg.Get(id)
		if !ok || !testkit.GraphsEqual(got, want) {
			t.Fatalf("%s: resident=%v, not the registered graph", id, ok)
		}
		if code, jv := e2.postJob(t, JobSpec{Graph: id, Method: "E1", Wait: true}); code != http.StatusOK || jv.Triangles != 4 {
			t.Fatalf("%s: job %d %+v", id, code, jv)
		}
	}
}
