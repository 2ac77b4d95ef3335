// Package server implements trid, the triangle-listing service daemon:
// an HTTP JSON API over a resident-graph registry and a bounded job
// queue, turning the repo's run-to-completion listing sweeps into a
// serving system.
//
//	POST   /v1/graphs            register a graph body (MatrixMarket, SNAP edge list or TRCSRF)
//	GET    /v1/graphs            list resident graphs (MRU order)
//	GET    /v1/graphs/{id}/plan  predicted cost ranking for every (method, order)
//	POST   /v1/jobs              submit a count/list job (JobSpec body)
//	GET    /v1/jobs/{id}         poll a job
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /healthz              liveness (503 while draining)
//	GET    /metrics              Prometheus text exposition
//
// The serving premise follows the paper's economics: loading and
// relabeling a large graph costs far more than one sweep, so the
// registry keeps content-hashed graphs and their orientations resident
// (byte-budgeted LRU) and every subsequent job pays only the sweep —
// which is itself cancellable at block granularity, so client timeouts
// and shutdown drains bound tail latency instead of abandoning
// goroutines mid-flight.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/metrics"
	"trilist/internal/planner"
)

// Options configures a Server.
type Options struct {
	// CacheBytes is the registry's resident-byte budget (graphs plus
	// cached orientations). Default 1 GiB.
	CacheBytes int64
	// MaxUploadBytes bounds a POST /v1/graphs body, the only way a
	// graph's bytes reach the daemon. Default 1 GiB.
	MaxUploadBytes int64
	// CSRDir, when set, persists every registered graph as a TRCSRF
	// file and lets LoadCSRDir mmap them back on restart. Empty
	// disables persistence.
	CSRDir string
	// QueueDepth bounds the job queue; submissions beyond it get 503.
	// Default 64.
	QueueDepth int
	// Workers is the job worker pool size; it also bounds the
	// parallelism of the planner's candidate grid on cache misses.
	// Default GOMAXPROCS.
	Workers int
	// DefaultListLimit is the triangle quota of list jobs that omit
	// limit. Default 1000.
	DefaultListLimit int
	// MaxListLimit caps any requested limit. Default 100000.
	MaxListLimit int
}

func (o Options) withDefaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 1 << 30
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 1 << 30
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DefaultListLimit <= 0 {
		o.DefaultListLimit = 1000
	}
	if o.MaxListLimit <= 0 {
		o.MaxListLimit = 100000
	}
	return o
}

// Server is the trid daemon: registry + job manager + HTTP surface.
type Server struct {
	opts    Options
	metrics *serverMetrics
	reg     *Registry
	jobs    *Manager
	mux     *http.ServeMux

	mappedMu sync.Mutex
	mapped   []io.Closer // warm-start mmaps, released on Shutdown
}

// New assembles a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	m := newServerMetrics()
	reg := NewRegistry(opts.CacheBytes, opts.Workers, m)
	s := &Server{
		opts:    opts,
		metrics: m,
		reg:     reg,
		jobs:    NewManager(opts, reg, m),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{id}/plan", s.handleGraphPlan)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP surface, for attachment to an http.Server
// (or an httptest one).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the job queue and pool; see Manager.Shutdown. New
// graph registrations and job submissions 503 from the moment it is
// called, while GETs keep serving so clients can collect results.
// Warm-start mappings are released only after a clean drain (an
// expired ctx may leave jobs reading mapped pages).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.jobs.Shutdown(ctx)
	if err == nil {
		s.closeMapped()
	}
	return err
}

// LoadCSRDir warm-starts the registry from CSRDir: every *.csrf file
// is memory-mapped (no parse, no copy — pages fault in on first use)
// and registered under the content hash encoded in its name. Corrupt
// or truncated files, and files whose recorded registration digest is
// not zero and differs from their name (a renamed or copied image),
// are skipped, reported in the joined error and counted in
// trid_graphs_warm_skipped_total, and never crash the daemon; loaded
// is the number of graphs now resident.
// The temp files of writes killed before their rename (csrfile.IsTemp)
// are removed: nothing loads them, so nothing else would reclaim them.
// Mappings live until Shutdown.
func (s *Server) LoadCSRDir() (loaded int, err error) {
	dir := s.opts.CSRDir
	if dir == "" {
		return 0, nil
	}
	ents, readErr := os.ReadDir(dir)
	if readErr != nil {
		if errors.Is(readErr, os.ErrNotExist) {
			return 0, nil
		}
		return 0, readErr
	}
	var errs []error
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if csrfile.IsTemp(name) {
			if rmErr := os.Remove(filepath.Join(dir, name)); rmErr != nil {
				errs = append(errs, rmErr)
			}
			continue
		}
		if !strings.HasSuffix(name, ".csrf") {
			continue
		}
		m, openErr := csrfile.Open(filepath.Join(dir, name))
		if openErr != nil {
			s.metrics.warmSkipped.Inc()
			errs = append(errs, openErr)
			continue
		}
		digest := strings.TrimSuffix(name, ".csrf")
		if d := m.Digest(); d != ([csrfile.DigestSize]byte{}) && hex.EncodeToString(d[:]) != digest {
			_ = m.Close()
			s.metrics.warmSkipped.Inc()
			errs = append(errs, fmt.Errorf("%s: image records digest %x, not its name", name, d))
			continue
		}
		id := "sha256:" + digest
		if s.reg.Add(id, m.Graph()) {
			s.mappedMu.Lock()
			s.mapped = append(s.mapped, m)
			s.mappedMu.Unlock()
			s.metrics.graphsWarmLoaded.Inc()
			loaded++
			// Warm the query plan alongside the graph: a restart should
			// leave auto-job planning as cheap as before it. Non-fatal,
			// like a corrupt file — the graph itself is fine.
			if _, planErr := s.reg.Plan(id); planErr != nil {
				errs = append(errs, planErr)
			}
		} else {
			_ = m.Close()
		}
	}
	return loaded, errors.Join(errs...)
}

// closeMapped releases every warm-start mapping. Only safe once no job
// can touch a registered graph, i.e. after a successful drain.
func (s *Server) closeMapped() {
	s.mappedMu.Lock()
	mapped := s.mapped
	s.mapped = nil
	s.mappedMu.Unlock()
	for _, c := range mapped {
		_ = c.Close()
	}
}

// errorBody is the uniform JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// graphInfo is the response of POST /v1/graphs.
type graphInfo struct {
	ID    string `json:"id"`
	Nodes int    `json:"nodes"`
	Edges int64  `json:"edges"`
	Bytes int64  `json:"bytes"`
	// Cached is true when the identical content was already resident,
	// so registration cost nothing but the hash.
	Cached bool `json:"cached"`
}

// handleRegisterGraph ingests a graph body in any ingest format
// (MatrixMarket, SNAP edge list or TRCSRF — sniffed), keys it by
// content hash, makes it resident and persists it to CSRDir. The
// optional ?format= query parameter pins the format instead of
// sniffing. A body in the retired TRICSR format is a 400 that names
// the format.
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	format, err := ingest.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, sum, err := readBody(w, r, s.opts.MaxUploadBytes)
	if err != nil {
		// Only an oversize body is a 413; a truncated or aborted one is
		// the client's malformed request.
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "reading body: %v", err)
		return
	}
	// The full digest is the identity: a truncated hash would let a
	// birthday-colliding pre-registration impersonate a future graph.
	id := "sha256:" + hex.EncodeToString(sum[:])
	s.metrics.graphsRegistered.Inc()
	if g, ok := s.reg.Get(id); ok {
		writeJSON(w, http.StatusOK, graphInfo{
			ID: id, Nodes: g.NumNodes(), Edges: g.NumEdges(),
			Bytes: graphBytes(g), Cached: true,
		})
		return
	}
	g, _, err := ingest.Parse(body, format, ingest.Options{Workers: s.opts.Workers})
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing graph: %v", err)
		return
	}
	s.reg.Add(id, g)
	// Eagerly compute and memoize the query plan so the first
	// method=auto job (or /plan preview) pays nothing. Best-effort: a
	// planning failure must not undo a registration that is already
	// resident — auto jobs will retry and surface the error.
	_, _ = s.reg.Plan(id)
	s.persistCSR(sum, g)
	writeJSON(w, http.StatusCreated, graphInfo{
		ID: id, Nodes: g.NumNodes(), Edges: g.NumEdges(), Bytes: graphBytes(g),
	})
}

// readBody reads a registration body whole and hashes it in the same
// pass, as the bytes arrive. A body with a declared length is read into
// one buffer of exactly that size; a declared length above limit is
// refused before any body byte is read, and the connection is closed
// rather than drained. A body of unknown length (chunked) grows its
// buffer as it arrives. Either way at most limit bytes are read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	if r.ContentLength > limit {
		w.Header().Set("Connection", "close")
		return nil, sum, &http.MaxBytesError{Limit: limit}
	}
	h := sha256.New()
	src := io.TeeReader(http.MaxBytesReader(w, r.Body, limit), h)
	var body []byte
	var err error
	if r.ContentLength >= 0 {
		body = make([]byte, r.ContentLength)
		_, err = io.ReadFull(src, body)
	} else {
		body, err = io.ReadAll(src)
	}
	h.Sum(sum[:0])
	return body, sum, err
}

// persistCSR writes the registered graph to CSRDir as a TRCSRF file
// named after its content hash and recording it, so a restarted daemon
// can mmap it back without reparsing. Best-effort: a full disk must
// not fail the registration that is already resident; the failure is
// counted in trid_graphs_persist_failures_total.
func (s *Server) persistCSR(sum [sha256.Size]byte, g *graph.Graph) {
	if s.opts.CSRDir == "" {
		return
	}
	path := filepath.Join(s.opts.CSRDir, hex.EncodeToString(sum[:])+".csrf")
	if _, err := os.Stat(path); err == nil {
		return // already persisted by an earlier run
	}
	if err := csrfile.WriteFile(path, g, sum); err != nil {
		s.metrics.persistFailures.Inc()
		return
	}
	s.metrics.graphsPersisted.Inc()
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":      s.reg.Snapshots(),
		"cache_bytes": s.reg.UsedBytes(),
	})
}

// handleGraphPlan previews the planner's ranking for a resident graph
// without running a job: the full (method, order) grid priced by
// eq. (50) on the fitted degree distribution and weighted into
// nanoseconds, fastest first, plus the fit diagnostics. The plan is memoized per graph, so repeated calls
// (and subsequent method=auto jobs) are free.
func (s *Server) handleGraphPlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, err := s.reg.Plan(id)
	switch {
	case errors.Is(err, ErrUnknownGraph):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, "planning %q: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Graph string `json:"graph"`
		planner.View
	}{Graph: id, View: p.View()})
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	j, err := s.jobs.Enqueue(spec)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrUnknownGraph):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// Client went away; the job keeps running server-side.
			writeJSON(w, http.StatusAccepted, j.View())
			return
		}
		writeJSON(w, http.StatusOK, j.View())
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.jobs.Counts()
	status, code := "ok", http.StatusOK
	if s.jobs.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"graphs":      s.reg.Len(),
		"cache_bytes": s.reg.UsedBytes(),
		"queued":      queued,
		"running":     running,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = s.metrics.registry.WriteText(w)
}
