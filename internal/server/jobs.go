package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"trilist/internal/core"
	"trilist/internal/exec"
	"trilist/internal/extmem"
	"trilist/internal/listing"
	"trilist/internal/obsv"
	"trilist/internal/order"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means the bounded job queue is at capacity (503).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining means the server is shutting down (503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrUnknownGraph means the job referenced an unregistered graph
	// id (404).
	ErrUnknownGraph = errors.New("server: graph not registered")
)

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobCancelled JobStatus = "cancelled"
	JobFailed    JobStatus = "failed"
)

// JobSpec is the request body of POST /v1/jobs.
type JobSpec struct {
	// Graph is the registry id returned by POST /v1/graphs.
	Graph string `json:"graph"`
	// Mode is "count" (default) or "list". List jobs record up to Limit
	// triangles in the job result; count jobs only meter.
	Mode string `json:"mode,omitempty"`
	// Method is one of the 18 listing methods, or "auto" (the default):
	// the planner prices every (method, order) pair in nanoseconds from
	// the graph's degree distribution and executes the predicted-fastest.
	// Explicit method names bypass the planner entirely.
	Method string `json:"method,omitempty"`
	// Order is a relabeling order name or "auto" (the default). The
	// auto/explicit combinations resolve as:
	//
	//	method=auto,     order=auto      planner's global best pair
	//	method=auto,     order=<name>    planner's best method under that
	//	                                 order — rejected (400) only for
	//	                                 the degenerate order, whose cost
	//	                                 the model cannot price from the
	//	                                 degree distribution (§7.5)
	//	method=<name>,   order=auto      the paper-optimal order for the
	//	                                 method (Corollaries 1–2)
	//	method=<name>,   order=<name>    exactly as requested
	Order string `json:"order,omitempty"`
	// Seed feeds the uniform order's RNG; other orders ignore it.
	Seed uint64 `json:"seed,omitempty"`
	// Workers parallelizes the sweep (0 = serial). Capped at GOMAXPROCS.
	// With Parts > 0 it sizes the block-triple worker pool instead;
	// results are identical at any worker count either way.
	Workers int `json:"workers,omitempty"`
	// Parts > 0 runs the job through the external-memory partitioned
	// lister: the orientation is split into Parts label ranges and swept
	// one block-triple pass at a time (Workers passes concurrently).
	// Partitioned jobs use the fixed E2-style block merge, so an explicit
	// method is rejected; order defaults to descending. Capped at
	// MaxParts. The response gains parts/passes/io fields.
	Parts int `json:"parts,omitempty"`
	// Limit bounds the triangles recorded by a list job (default and cap
	// come from the server options). The sweep stops once reached and
	// the job reports truncated=true.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds the job end to end — the clock starts when the
	// job is accepted, so time spent queued counts. 0 = no limit.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	// Wait makes POST /v1/jobs block until the job finishes and return
	// the final state instead of 202.
	Wait bool `json:"wait,omitempty"`
}

// Job is one queued or executing listing request.
type Job struct {
	id     string
	spec   JobSpec
	method listing.Method
	kind   order.Kind
	list   bool
	limit  int
	parts  int
	// planned marks a job whose method/order came from the planner;
	// predicted is the plan's total model-op prediction for the pair and
	// predictedNs the same prediction priced in nanoseconds.
	planned     bool
	predicted   float64
	predictedNs float64

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	status    JobStatus
	errMsg    string
	stats     listing.Stats
	partRes   *extmem.Result
	maxOutDeg int64
	truncated bool
	limitHit  bool
	cacheHit  bool
	stageMS   map[string]float64
	triangles [][3]int32
	queuedAt  time.Time
	startedAt time.Time
	endedAt   time.Time
}

// JobView is the JSON rendering of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Graph    string `json:"graph"`
	Mode     string `json:"mode"`
	Method   string `json:"method"`
	Order    string `json:"order"`
	Workers  int    `json:"workers"`
	Limit    int    `json:"limit,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// Truncated marks a list job whose sweep was stopped at Limit.
	Truncated bool `json:"truncated,omitempty"`
	// Triangles is the number found; on cancelled jobs it is the partial
	// count accumulated before the stop.
	Triangles int64 `json:"triangles"`
	ModelOps  int64 `json:"model_ops"`
	MaxOutDeg int64 `json:"max_out_degree,omitempty"`
	// PlannedMethod/PlannedOrder record the planner's choice on
	// method=auto jobs (they match Method/Order; their presence marks
	// the job as planner-driven). PredictedCost is the plan's total
	// model-op prediction, ActualAdvWork the executed sweep's model ops
	// (= model_ops, the paper's advertised-work meter), and
	// PredictedActualRatio their quotient — the live validation signal
	// also exported as the trid_planner_predicted_actual_ratio
	// histogram. Actuals appear once the job is done. PredictedNs is
	// the plan's price for the pair in nanoseconds, the quantity the
	// planner ranked by; compare it with list_ms.
	PlannedMethod string `json:"planned_method,omitempty"`
	PlannedOrder  string `json:"planned_order,omitempty"`
	// PlannedKernel is never set, so it never appears in the JSON:
	// every sweep takes the same intersection path and there is no
	// kernel to plan. It stays only because the job benchmark reads it
	// into its plan-change check, where an always-empty value keeps
	// that check consistent.
	PlannedKernel        string  `json:"planned_kernel,omitempty"`
	PredictedCost        float64 `json:"predicted_cost,omitempty"`
	PredictedNs          float64 `json:"predicted_ns,omitempty"`
	ActualAdvWork        int64   `json:"actual_adv_work,omitempty"`
	PredictedActualRatio float64 `json:"predicted_actual_ratio,omitempty"`
	// Parts, Passes and IO appear on partitioned jobs: the partition
	// count actually used, the block-triple passes committed, and the
	// block-store traffic meters (deterministic at any worker count).
	Parts  int             `json:"parts,omitempty"`
	Passes int64           `json:"passes,omitempty"`
	IO     *extmem.IOStats `json:"io,omitempty"`
	// TriangleList carries up to Limit triangles (list mode only) as
	// [x, y, z] triples in relabeled IDs.
	TriangleList [][3]int32 `json:"triangle_list,omitempty"`
	QueueMS      float64    `json:"queue_ms"`
	ListMS       float64    `json:"list_ms"`
	// StageMS breaks the job's wall time down by pipeline stage: "list"
	// for every executed sweep, plus "rank" and "orient" when the job
	// missed the orientation cache and paid preprocessing itself.
	// Cancelled and timed-out jobs report the partial stage durations
	// accumulated before the stop.
	StageMS map[string]float64 `json:"stage_ms,omitempty"`
}

// View snapshots the job state for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Status:    string(j.status),
		Graph:     j.spec.Graph,
		Mode:      map[bool]string{true: "list", false: "count"}[j.list],
		Method:    j.method.String(),
		Order:     j.kind.String(),
		Workers:   j.spec.Workers,
		Error:     j.errMsg,
		CacheHit:  j.cacheHit,
		Truncated: j.truncated,
		Triangles: j.stats.Triangles,
		ModelOps:  j.stats.ModelOps(),
		MaxOutDeg: j.maxOutDeg,
	}
	if j.planned {
		v.PlannedMethod = j.method.String()
		v.PlannedOrder = j.kind.String()
		v.PredictedCost = j.predicted
		v.PredictedNs = j.predictedNs
		if j.status == JobDone {
			v.ActualAdvWork = j.stats.ModelOps()
			if v.ActualAdvWork > 0 {
				v.PredictedActualRatio = j.predicted / float64(v.ActualAdvWork)
			}
		}
	}
	if j.parts > 0 {
		v.Parts = j.parts
	}
	if j.partRes != nil {
		v.Passes = j.partRes.Passes
		io := j.partRes.IO
		v.IO = &io
	}
	if j.list {
		v.Limit = j.limit
		// Copy: the sweep may still be appending to j.triangles.
		v.TriangleList = append([][3]int32(nil), j.triangles...)
	}
	if len(j.stageMS) > 0 {
		v.StageMS = make(map[string]float64, len(j.stageMS))
		for s, ms := range j.stageMS {
			v.StageMS[s] = ms
		}
	}
	if !j.startedAt.IsZero() {
		v.QueueMS = float64(j.startedAt.Sub(j.queuedAt)) / float64(time.Millisecond)
		if !j.endedAt.IsZero() {
			v.ListMS = float64(j.endedAt.Sub(j.startedAt)) / float64(time.Millisecond)
		}
	}
	return v
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation. Queued jobs are cancelled
// before their sweep starts; running jobs stop at the next checkpoint.
func (j *Job) Cancel() { j.cancel() }

// Manager owns the bounded job queue and the worker pool draining it.
type Manager struct {
	reg  *Registry
	m    *serverMetrics
	opts Options

	mu       sync.Mutex
	draining bool
	closed   bool
	jobs     map[string]*Job
	queue    chan *Job
	seq      int64
	wg       sync.WaitGroup
}

// testHookJobStart, when non-nil, runs at the top of every job
// execution — test plumbing for deterministic in-flight states.
var testHookJobStart func(*Job)

// NewManager starts opts.Workers goroutines draining a queue of depth
// opts.QueueDepth.
func NewManager(opts Options, reg *Registry, m *serverMetrics) *Manager {
	mgr := &Manager{
		reg:   reg,
		m:     m,
		opts:  opts,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, opts.QueueDepth),
	}
	for i := 0; i < opts.Workers; i++ {
		mgr.wg.Add(1)
		go func() {
			defer mgr.wg.Done()
			for j := range mgr.queue {
				mgr.runJob(j)
			}
		}()
	}
	return mgr
}

// parseMethod resolves an explicit method name (case-insensitive).
// "auto" and "" never reach it — Enqueue routes those through the
// planner instead of silently defaulting.
func parseMethod(s string) (listing.Method, error) {
	for _, m := range listing.Methods {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (want auto or T1-T6, E1-E6, L1-L6)", s)
}

// parseOrder resolves an order name; auto reports "" or "auto", whose
// meaning depends on how the method resolved (see JobSpec.Order).
func parseOrder(s string) (kind order.Kind, auto bool, err error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return 0, true, nil
	case "ascending", "asc", "a":
		return order.KindAscending, false, nil
	case "descending", "desc", "d":
		return order.KindDescending, false, nil
	case "round-robin", "roundrobin", "rr":
		return order.KindRoundRobin, false, nil
	case "crr", "complementary-round-robin":
		return order.KindCRR, false, nil
	case "uniform", "random", "u":
		return order.KindUniform, false, nil
	case "degenerate", "degen", "smallest-last":
		return order.KindDegenerate, false, nil
	default:
		return 0, false, fmt.Errorf("unknown order %q", s)
	}
}

// MaxParts caps a job's requested partition count: P³ triple passes
// get scheduled, so an unbounded P would turn one request into a
// quarter-million tiny passes.
const MaxParts = 64

// Enqueue validates the spec and admits the job to the bounded queue.
// Returns ErrDraining during shutdown and ErrQueueFull at capacity.
func (mgr *Manager) Enqueue(spec JobSpec) (*Job, error) {
	kind, orderAuto, err := parseOrder(spec.Order)
	if err != nil {
		return nil, err
	}
	if spec.Parts < 0 {
		return nil, fmt.Errorf("negative parts %d", spec.Parts)
	}
	if spec.Parts > MaxParts {
		spec.Parts = MaxParts
	}
	var (
		method      listing.Method
		planned     bool
		predicted   float64
		predictedNs float64
	)
	if spec.Parts > 0 {
		// Partitioned jobs run the fixed E2-style block-merge sweep; the
		// planner's method grid does not apply, and an explicit method
		// would silently not be honored — reject instead.
		if spec.Method != "" && !strings.EqualFold(spec.Method, "auto") {
			return nil, fmt.Errorf("parts > 0 uses the partitioned E2 block sweep; method %q cannot be combined with it", spec.Method)
		}
		method = listing.E2
		if orderAuto {
			kind = order.KindDescending
		}
	} else if spec.Method == "" || strings.EqualFold(spec.Method, "auto") {
		// Planner-driven resolution (memoized per graph; also the
		// registration check for this path). An explicit order constrains
		// the search to its column of the grid; only the degenerate order
		// is un-plannable — eq. (50) cannot price it from the degree
		// distribution alone.
		plan, err := mgr.reg.Plan(spec.Graph)
		if err != nil {
			return nil, err
		}
		c := plan.Best()
		if !orderAuto {
			var ok bool
			c, ok = plan.BestUnder(kind)
			if !ok {
				return nil, fmt.Errorf("method=auto cannot plan order %q: its cost is not predictable from the degree distribution; name a method explicitly", spec.Order)
			}
		}
		method, kind = c.Method, c.Order
		planned, predicted, predictedNs = true, c.Total, c.PredictedNs
	} else {
		method, err = parseMethod(spec.Method)
		if err != nil {
			return nil, err
		}
		if orderAuto {
			kind = core.Recommended(method)
		}
	}
	var isList bool
	switch spec.Mode {
	case "", "count":
		isList = false
	case "list":
		isList = true
	default:
		return nil, fmt.Errorf("unknown mode %q (want count or list)", spec.Mode)
	}
	if spec.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %v", spec.TimeoutMS)
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("negative workers %d", spec.Workers)
	}
	if maxWorkers := runtime.GOMAXPROCS(0); spec.Workers > maxWorkers {
		spec.Workers = maxWorkers
	}
	limit := spec.Limit
	if limit <= 0 {
		limit = mgr.opts.DefaultListLimit
	}
	if limit > mgr.opts.MaxListLimit {
		limit = mgr.opts.MaxListLimit
	}
	if _, ok := mgr.reg.Get(spec.Graph); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, spec.Graph)
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if spec.TimeoutMS > 0 {
		// The deadline covers queue wait: a client-bounded job must not
		// dodge its budget by sitting in a backed-up queue.
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutMS*float64(time.Millisecond)))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}

	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.draining {
		cancel()
		if mgr.m != nil {
			mgr.m.jobsRejected.Inc()
		}
		return nil, ErrDraining
	}
	mgr.seq++
	j := &Job{
		id:          fmt.Sprintf("job-%d", mgr.seq),
		spec:        spec,
		method:      method,
		kind:        kind,
		list:        isList,
		limit:       limit,
		parts:       spec.Parts,
		planned:     planned,
		predicted:   predicted,
		predictedNs: predictedNs,

		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		status:   JobQueued,
		queuedAt: time.Now(),
	}
	select {
	case mgr.queue <- j:
	default:
		cancel()
		if mgr.m != nil {
			mgr.m.jobsRejected.Inc()
		}
		return nil, ErrQueueFull
	}
	mgr.jobs[j.id] = j
	if mgr.m != nil {
		mgr.m.jobsQueued.Inc()
	}
	return j, nil
}

// Get returns a job by id.
func (mgr *Manager) Get(id string) (*Job, bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	j, ok := mgr.jobs[id]
	return j, ok
}

// Counts reports (queued, running) jobs for /healthz.
func (mgr *Manager) Counts() (queued, running int) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	for _, j := range mgr.jobs {
		j.mu.Lock()
		switch j.status {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}

// runJob executes one job end to end: resolve the orientation through
// the registry (the cache-amortized step), run the cancellable sweep,
// and finalize status + metrics.
func (mgr *Manager) runJob(j *Job) {
	defer close(j.done)
	defer j.cancel() // release the timeout timer

	j.mu.Lock()
	j.status = JobRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
	if mgr.m != nil {
		mgr.m.jobsQueued.Dec()
		mgr.m.jobsStarted.Inc()
		mgr.m.jobsInflight.Inc()
		defer mgr.m.jobsInflight.Dec()
	}
	if testHookJobStart != nil {
		testHookJobStart(j)
	}

	// A job cancelled (or timed out) while queued never touches the
	// registry or the sweep.
	if err := j.ctx.Err(); err != nil {
		mgr.finalize(j, listing.Stats{Method: j.method}, 0, err)
		return
	}

	// One recorder per job: the registry records rank/orient on a cache
	// miss, the sweep records list; the snapshot feeds both the
	// per-stage histograms and the job's stage_ms breakdown.
	rec := obsv.NewRecorder(obsv.WithAllocSampler(nil))
	o, hit, err := mgr.reg.Oriented(j.spec.Graph, j.kind, j.spec.Seed, rec)
	if err != nil {
		mgr.fail(j, err)
		return
	}
	j.mu.Lock()
	j.cacheHit = hit
	j.mu.Unlock()

	var visit listing.Visitor
	if j.list {
		// Record up to limit triangles; the sweep is cancelled once the
		// quota fills, so a "first k triangles" query on a billion-
		// triangle graph costs a prefix of the sweep, not all of it.
		// j.mu also guards the slice against concurrent GET snapshots.
		visit = func(x, y, z int32) {
			j.mu.Lock()
			defer j.mu.Unlock()
			if len(j.triangles) < j.limit {
				j.triangles = append(j.triangles, [3]int32{x, y, z})
				if len(j.triangles) == j.limit {
					j.limitHit = true
					j.cancel()
				}
			}
		}
	}
	start := time.Now()
	var st listing.Stats
	var runErr error
	if j.parts > 0 {
		// Partitioned sweep: block-triple schedule on the scatter/gather
		// executor. Spills go to a per-job subdir when configured (core
		// removes the block files on every path; the subdir itself is
		// dropped here).
		spill := ""
		if mgr.opts.SpillDir != "" {
			spill = filepath.Join(mgr.opts.SpillDir, j.id)
		}
		var res core.Result
		res, runErr = core.ListOriented(j.ctx, o, core.Config{
			Order:      j.kind,
			Workers:    j.spec.Workers,
			Recorder:   rec,
			Parts:      j.parts,
			SpillDir:   spill,
			Speculate:  j.spec.Workers > 1,
			ExecEvents: mgr.execEventHook(),
		}, visit)
		st = res.Stats
		j.mu.Lock()
		j.partRes = res.Partitioned
		j.mu.Unlock()
		if spill != "" {
			_ = os.Remove(spill)
		}
	} else {
		st, runErr = listing.RunParallelCtx(j.ctx, o, j.method, j.spec.Workers, visit,
			listing.WithRecorder(rec))
	}

	snap := rec.Snapshot()
	j.mu.Lock()
	j.stageMS = make(map[string]float64, len(snap))
	for stage, ss := range snap {
		j.stageMS[string(stage)] = float64(ss.Wall) / float64(time.Millisecond)
	}
	j.mu.Unlock()

	mgr.finalize(j, st, o.MaxOutDeg(), runErr)
	if mgr.m != nil {
		mgr.m.jobDuration.With(j.method.String()).Observe(time.Since(start).Seconds())
		mgr.m.trianglesListed.Add(st.Triangles)
		for stage, ss := range snap {
			mgr.m.stageDuration.With(string(stage)).Observe(ss.Wall.Seconds())
		}
		if j.planned {
			mgr.m.plannerJobs.With(j.method.String()).Inc()
			// The predicted/actual ratio only means something for a sweep
			// that ran to completion: partial sweeps do a prefix of the
			// advertised work.
			j.mu.Lock()
			completed := j.status == JobDone
			actual := j.stats.ModelOps()
			j.mu.Unlock()
			if completed && actual > 0 {
				mgr.m.plannerRatio.With(j.method.String()).Observe(j.predicted / float64(actual))
			}
		}
	}
}

// finalize records the sweep outcome. A limit-stopped list job is done
// (truncated), not cancelled: the client got exactly what it asked for.
func (mgr *Manager) finalize(j *Job, st listing.Stats, maxOut int64, runErr error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = st
	j.maxOutDeg = maxOut
	j.endedAt = time.Now()
	switch {
	case runErr == nil, j.limitHit:
		// Quota-filled list jobs are done+truncated even when the sweep
		// finished before a cancellation checkpoint noticed the cancel
		// (small graphs fit in one block).
		j.status = JobDone
		j.truncated = j.limitHit
	case errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded):
		j.status = JobCancelled
		if errors.Is(runErr, context.DeadlineExceeded) {
			j.errMsg = "deadline exceeded"
		} else {
			j.errMsg = "cancelled"
		}
	default:
		// A real execution failure (e.g. a partitioned job's block store
		// erroring out after retries) is failed, not cancelled — the
		// client did not ask for the stop and should see the cause.
		j.status = JobFailed
		j.errMsg = runErr.Error()
	}
	if mgr.m != nil {
		switch j.status {
		case JobCancelled:
			mgr.m.jobsCancelled.Inc()
		case JobFailed:
			mgr.m.jobsFailed.Inc()
		default:
			mgr.m.jobsCompleted.Inc()
		}
	}
}

// execEventHook adapts the partitioned executor's event stream to the
// trid_exec_* meters. Called from triple-pass worker goroutines; the
// metrics registry is lock-free, so the hook is concurrency-safe.
func (mgr *Manager) execEventHook() func(exec.Event) {
	m := mgr.m
	if m == nil {
		return nil
	}
	return func(ev exec.Event) {
		switch ev.Status {
		case exec.StatusRetry:
			m.execRetries.Inc()
		case exec.StatusReissued:
			m.execStragglers.Inc()
		case exec.StatusOK:
			m.execTriples.With(string(ev.Status)).Inc()
			m.execTripleDuration.Observe(ev.Duration.Seconds())
		default:
			m.execTriples.With(string(ev.Status)).Inc()
		}
	}
}

func (mgr *Manager) fail(j *Job, err error) {
	j.mu.Lock()
	j.status = JobFailed
	j.errMsg = err.Error()
	j.endedAt = time.Now()
	j.mu.Unlock()
	if mgr.m != nil {
		mgr.m.jobsFailed.Inc()
	}
}

// Shutdown stops admissions, drains queued and in-flight jobs, and
// returns once the pool is idle. If ctx expires first, all remaining
// jobs are cancelled (their sweeps stop at the next checkpoint) and
// Shutdown waits for the pool to observe that before returning ctx's
// error.
func (mgr *Manager) Shutdown(ctx context.Context) error {
	mgr.mu.Lock()
	mgr.draining = true
	if !mgr.closed {
		mgr.closed = true
		close(mgr.queue)
	}
	mgr.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		mgr.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	mgr.mu.Lock()
	for _, j := range mgr.jobs {
		j.cancel()
	}
	mgr.mu.Unlock()
	<-idle
	return ctx.Err()
}

// Draining reports whether shutdown has begun.
func (mgr *Manager) Draining() bool {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.draining
}
