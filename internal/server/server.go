// Package server implements trid, the triangle-listing service daemon:
// an HTTP JSON API over a resident-graph registry and a bounded job
// queue, turning the repo's run-to-completion listing sweeps into a
// serving system.
//
//	POST   /v1/graphs            register an edge-list or binary-CSR graph body
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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"

	"trilist/internal/ingest"
	"trilist/internal/metrics"
	"trilist/internal/planner"
)

// Options configures a Server.
type Options struct {
	// CacheBytes is the registry's resident-byte budget (graphs plus
	// cached orientations). Default 1 GiB.
	CacheBytes int64
	// MaxUploadBytes bounds a POST /v1/graphs body and the total spooled
	// size of a chunked upload. Default 1 GiB.
	MaxUploadBytes int64
	// MaxUploads bounds concurrently open chunked uploads. Default 16.
	MaxUploads int
	// UploadDir is where chunked uploads spool before commit. Default
	// the system temp directory.
	UploadDir string
	// CSRDir, when set, persists every registered graph as a TRCSRF
	// file and lets LoadCSRDir mmap them back on restart. Empty
	// disables persistence.
	CSRDir string
	// QueueDepth bounds the job queue; submissions beyond it get 503.
	// Default 64.
	QueueDepth int
	// Workers is the job worker pool size; it also bounds the
	// parallelism of registry rank/orient rebuilds on cache misses.
	// Default GOMAXPROCS.
	Workers int
	// SpillDir, when set, gives partitioned jobs (JobSpec.Parts > 0) a
	// real file-backed block store: each job spills to its own subdir,
	// removed when the job finishes. Empty keeps partition blocks in
	// memory.
	SpillDir string
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
	if o.MaxUploads <= 0 {
		o.MaxUploads = 16
	}
	if o.UploadDir == "" {
		o.UploadDir = os.TempDir()
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
	uploads *uploadSet

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
		uploads: newUploadSet(opts.UploadDir, opts.MaxUploads),
	}
	s.mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	s.mux.HandleFunc("POST /v1/graphs/upload", s.handleUploadBegin)
	s.mux.HandleFunc("PUT /v1/graphs/upload/{id}", s.handleUploadAppend)
	s.mux.HandleFunc("POST /v1/graphs/upload/{id}/commit", s.handleUploadCommit)
	s.mux.HandleFunc("DELETE /v1/graphs/upload/{id}", s.handleUploadAbort)
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

// Registry exposes the graph registry (tests, warm-up loaders).
func (s *Server) Registry() *Registry { return s.reg }

// Shutdown drains the job queue and pool; see Manager.Shutdown. New
// graph registrations, uploads and job submissions 503 from the moment
// it is called, while GETs keep serving so clients can collect
// results. In-flight upload spools are discarded; warm-start mappings
// are released only after a clean drain (an expired ctx may leave jobs
// reading mapped pages).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.jobs.Shutdown(ctx)
	s.uploads.closeAll()
	if err == nil {
		s.closeMapped()
	}
	return err
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
// (MatrixMarket, SNAP edge list, TRCSRF or binary CSR — sniffed), keys
// it by content hash, and makes it resident. The optional ?format=
// query parameter pins the format instead of sniffing.
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	info, code, err := s.registerBytes(body, format)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, code, info)
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
