// Command trid runs the triangle-listing service daemon: an HTTP JSON
// API over a resident-graph registry and a bounded, cancellable job
// queue (see internal/server).
//
// Usage:
//
//	trid [-addr :8080] [-cache-bytes 1073741824] [-queue 64] \
//	     [-workers 0] [-drain-timeout 30s] [-debug-addr addr] \
//	     [-csr-dir dir]
//
// -workers sizes the job worker pool and also bounds the parallelism
// of the planner's candidate grid on cache misses.
//
// -csr-dir persists every registered graph as a checksummed TRCSRF
// file and warm-starts the registry on boot by memory-mapping the
// files back — a restart costs page faults, not a reparse. Corrupt
// files are skipped with a warning. Partitioned jobs (JobSpec parts > 0)
// keep their partition blocks in memory.
//
// POST /v1/graphs is the one way to register a graph. -upload-dir,
// once the spool of a chunked-upload protocol that is gone, still
// parses so existing command lines keep working, and is ignored; the
// benchmark change that stops passing it (ROADMAP step 9a) drops it.
//
// The daemon logs its listen address on startup and shuts down
// gracefully on SIGINT/SIGTERM: new submissions get 503 while queued
// and in-flight jobs drain, bounded by -drain-timeout (after which
// remaining sweeps are cancelled at their next checkpoint).
//
// The API listener bounds how long a client may take to send request
// headers (readHeaderTimeout) and how long an idle keep-alive
// connection is held (idleTimeout). There is no write timeout: a
// wait:true job legitimately holds its response for as long as the
// sweep runs (its timeout_ms, when set, is the bound).
//
// -debug-addr (e.g. localhost:6060) opts into a second listener
// serving net/http/pprof under /debug/pprof/ — kept off the API
// address so profiling endpoints are never exposed where the JSON API
// is. It is empty (disabled) by default.
//
//	curl -X POST --data-binary @graph.txt localhost:8080/v1/graphs
//	curl localhost:8080/v1/graphs/sha256:.../plan
//	curl -X POST -d '{"graph":"sha256:...","method":"auto","wait":true}' \
//	     localhost:8080/v1/jobs
//
// Jobs with method=auto (the default) execute the planner's
// predicted-fastest (method, order) pair for the graph's degree
// distribution and report planned_method/planned_order/predicted_cost/
// predicted_ns plus the actual advertised work; GET
// /v1/graphs/{id}/plan previews the full ranking without running
// anything.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trilist/internal/server"
)

const (
	// readHeaderTimeout bounds the time from accepting a connection (or
	// finishing the previous request on it) to reading a full request
	// header, so a client trickling header bytes cannot pin a
	// connection and its goroutine indefinitely.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout bounds how long a keep-alive connection may sit idle
	// between requests.
	idleTimeout = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trid:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (signal) and
// the drain completes. The listen address is printed to out once the
// listener is bound, so scripts (and tests) can use -addr :0.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trid", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port, port 0 picks a free port)")
	cacheBytes := fs.Int64("cache-bytes", 1<<30, "registry byte budget for resident graphs and orientations")
	queueDepth := fs.Int("queue", 64, "job queue depth; submissions beyond it get 503")
	workers := fs.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight jobs are cancelled")
	debugAddr := fs.String("debug-addr", "", "optional listen address serving net/http/pprof under /debug/pprof/ (empty = disabled)")
	csrDir := fs.String("csr-dir", "", "directory persisting registered graphs as TRCSRF files, mmap-loaded on restart (empty = disabled)")
	_ = fs.String("upload-dir", "", "ignored: the chunked-upload spool is gone; kept so old command lines parse until ROADMAP step 9a's benchmark change drops it")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *csrDir != "" {
		if err := os.MkdirAll(*csrDir, 0o755); err != nil {
			return fmt.Errorf("csr-dir: %w", err)
		}
	}
	srv := server.New(server.Options{
		CacheBytes: *cacheBytes,
		QueueDepth: *queueDepth,
		Workers:    *workers,
		CSRDir:     *csrDir,
	})
	if *csrDir != "" {
		loaded, err := srv.LoadCSRDir()
		if err != nil {
			fmt.Fprintf(out, "trid: warm start: %v\n", err)
		}
		if loaded > 0 {
			fmt.Fprintf(out, "trid warm-started %d graphs from %s\n", loaded, *csrDir)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trid listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var ds *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(out, "trid debug (pprof) listening on %s\n", dln.Addr())
		ds = &http.Server{Handler: debugMux()}
		go func() {
			// Best-effort: a dead debug listener must not take down the
			// serving daemon.
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(out, "trid: debug server: %v\n", err)
			}
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "trid draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the job queue first (new work 503s from here on), then close
	// the HTTP listener so clients can still poll results meanwhile.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(out, "trid: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if ds != nil {
		_ = ds.Shutdown(drainCtx)
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	fmt.Fprintln(out, "trid stopped")
	return nil
}

// debugMux routes the pprof surface explicitly rather than relying on
// net/http/pprof's DefaultServeMux registrations, so nothing else ever
// leaks onto the debug listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
