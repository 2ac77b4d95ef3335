package server

import "trilist/internal/metrics"

// plannerRatioBuckets bracket the predicted/actual ratio around its
// ideal value of 1.0 (latency-style DefBuckets would waste all their
// resolution below 10s and none around 1). eq. (50) is an expectation
// over graphs with the observed degree distribution, so ratios off 1
// by a few percent are normal; sustained mass outside [0.5, 2] means
// the model mispredicts this workload.
var plannerRatioBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1, 1.05, 1.1, 1.25, 1.5, 2, 4, 10}

// serverMetrics bundles every meter the daemon exposes on /metrics.
// All names carry the trid_ prefix so a shared Prometheus can scrape
// several services without collisions.
type serverMetrics struct {
	registry *metrics.Registry

	jobsStarted   *metrics.Counter
	jobsCompleted *metrics.Counter
	jobsCancelled *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsRejected  *metrics.Counter
	jobsInflight  *metrics.Gauge
	jobsQueued    *metrics.Gauge

	trianglesListed *metrics.Counter
	jobDuration     *metrics.HistogramVec // labeled by listing method
	stageDuration   *metrics.HistogramVec // labeled by pipeline stage

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictions *metrics.Counter
	cacheBytes     *metrics.Gauge
	graphsResident *metrics.Gauge

	graphsRegistered *metrics.Counter
	graphsPersisted  *metrics.Counter
	graphsWarmLoaded *metrics.Counter

	plannerPlans *metrics.Counter
	plannerJobs  *metrics.CounterVec   // labeled by the method the planner chose
	plannerRatio *metrics.HistogramVec // predicted/actual model ops, labeled by method

	execTriples        *metrics.CounterVec // block-triple executions by outcome
	execRetries        *metrics.Counter
	execStragglers     *metrics.Counter
	execTripleDuration *metrics.Histogram

	uploadsOpen      *metrics.Gauge
	uploadsCommitted *metrics.Counter
	uploadBytes      *metrics.Counter
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	return &serverMetrics{
		registry: r,

		jobsStarted:   r.NewCounter("trid_jobs_started_total", "Jobs whose sweep began executing."),
		jobsCompleted: r.NewCounter("trid_jobs_completed_total", "Jobs that ran to completion."),
		jobsCancelled: r.NewCounter("trid_jobs_cancelled_total", "Jobs stopped by timeout or explicit cancel."),
		jobsFailed:    r.NewCounter("trid_jobs_failed_total", "Jobs that errored before or during the sweep."),
		jobsRejected:  r.NewCounter("trid_jobs_rejected_total", "Job submissions refused (queue full or draining)."),
		jobsInflight:  r.NewGauge("trid_jobs_inflight", "Jobs currently executing."),
		jobsQueued:    r.NewGauge("trid_jobs_queued", "Jobs waiting in the queue."),

		trianglesListed: r.NewCounter("trid_triangles_listed_total", "Triangles reported across all jobs (partial sweeps included)."),
		jobDuration: r.NewHistogramVec("trid_job_duration_seconds",
			"Wall-clock sweep duration per listing method.", "method", metrics.DefBuckets),
		stageDuration: r.NewHistogramVec("trid_stage_duration_seconds",
			"Wall-clock duration per pipeline stage (rank, orient on cache misses; list every job).",
			"stage", metrics.DefBuckets),

		cacheHits:      r.NewCounter("trid_graph_cache_hits_total", "Registry lookups served from a resident orientation."),
		cacheMisses:    r.NewCounter("trid_graph_cache_misses_total", "Registry lookups that had to relabel and orient."),
		cacheEvictions: r.NewCounter("trid_graph_cache_evictions_total", "Graphs evicted to stay under the byte budget."),
		cacheBytes:     r.NewGauge("trid_graph_cache_bytes", "Bytes of resident graphs and orientations."),
		graphsResident: r.NewGauge("trid_graphs_resident", "Graphs currently resident in the registry."),

		graphsRegistered: r.NewCounter("trid_graphs_registered_total", "Accepted graph registrations, direct or upload-commit (including re-registrations)."),
		graphsPersisted:  r.NewCounter("trid_graphs_persisted_total", "Graphs written to the CSR directory."),
		graphsWarmLoaded: r.NewCounter("trid_graphs_warm_loaded_total", "Graphs memory-mapped from the CSR directory at startup."),

		plannerPlans: r.NewCounter("trid_planner_plans_computed_total",
			"Query plans computed and memoized by the registry."),
		plannerJobs: r.NewCounterVec("trid_planner_jobs_total",
			"Jobs whose method/order were chosen by the planner (method=auto).", "method"),
		plannerRatio: r.NewHistogramVec("trid_planner_predicted_actual_ratio",
			"Predicted model cost divided by the executed sweep's actual model ops, per planner-chosen method. Buckets bracket 1.0: below = model underestimates, above = overestimates.",
			"method", plannerRatioBuckets),

		execTriples: r.NewCounterVec("trid_exec_triples_total",
			"Block-triple pass executions of partitioned jobs by outcome (ok, failed, duplicate, abandoned).", "status"),
		execRetries: r.NewCounter("trid_exec_retries_total",
			"Block-triple pass attempts retried after a transient store failure."),
		execStragglers: r.NewCounter("trid_exec_stragglers_total",
			"Speculative straggler re-issues of in-flight block-triple passes."),
		execTripleDuration: r.NewHistogram("trid_exec_triple_duration_seconds",
			"Wall-clock duration of winning block-triple pass executions.", metrics.DefBuckets),

		uploadsOpen:      r.NewGauge("trid_uploads_open", "Chunked uploads currently spooling."),
		uploadsCommitted: r.NewCounter("trid_uploads_committed_total", "Chunked uploads committed into the registry."),
		uploadBytes:      r.NewCounter("trid_upload_bytes_total", "Bytes appended across all chunked uploads."),
	}
}
