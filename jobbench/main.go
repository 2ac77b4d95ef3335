// Command jobbench is trilist's end-to-end job benchmark. One
// closed-loop client on one keep-alive connection drives a real trid
// process over loopback, checks every answer against an oracle computed
// in the benchmark's own process, and prints the metrics named in
// BENCHMARK.json as the last line of standard output. With -trace 1 it
// also replays each op as direct calls into the layers and reports
// per-layer metrics instead. See README.md.
//
// Usage (run.sh builds both binaries first):
//
//	jobbench -trid path/to/trid -workload cold-ingest -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"trilist/internal/extmem"
	"trilist/internal/planner"
	"trilist/internal/server"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	trid     string // trid binary
	spool    string // trid's upload spool directory
	fixtures string // directory holding karate.mtx
	nodes    int    // overrides every workload's node count when > 0; tests only
}

func parseArgs(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input graph derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 replays ops layer by layer and reports per-layer metrics")
	fs.StringVar(&cfg.trid, "trid", "", "trid binary to drive")
	fs.StringVar(&cfg.spool, "spool", os.TempDir(), "upload spool directory handed to trid")
	fs.StringVar(&cfg.fixtures, "fixtures", "internal/ingest/testdata", "directory holding karate.mtx")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = *trace == 1
	switch {
	case cfg.trid == "":
		return cfg, errors.New("-trid is required")
	case cfg.seconds <= 0:
		return cfg, errors.New("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return cfg, errors.New("-trace must be 0 or 1")
	}
	_, err := findWorkload(cfg.workload)
	return cfg, err
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo records the host, the inputs and the plans of a run; it is
// printed as the line before the result.
type runInfo struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	Trace        bool                 `json:"trace"`
	NumCPU       int                  `json:"num_cpu"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	GoVersion    string               `json:"go_version"`
	Graphs       []graphRow           `json:"graphs"`
	KernelCoeffs planner.KernelCoeffs `json:"kernel_coeffs"`
	// The measured wall times, before they are scaled to the nominal
	// host speed (see yardstick.go): every set-up, the job latencies
	// and throughput, and the median yardstick time.
	SetupS      []float64 `json:"raw_setup_s,omitempty"`
	P50MS       float64   `json:"raw_job_p50_ms,omitempty"`
	P90MS       float64   `json:"raw_job_p90_ms,omitempty"`
	JobsPerS    float64   `json:"raw_jobs_per_s,omitempty"`
	YardstickMS float64   `json:"yardstick_ms,omitempty"`
	RSSMB       []float64 `json:"rss_peak_mb,omitempty"`
	// StealFrac is the share of runnable CPU time the hypervisor took
	// while the run measured (see steal.go).
	StealFrac   float64 `json:"steal_frac"`
	Ops         int     `json:"ops"`
	ReplayedOps int     `json:"replayed_ops,omitempty"`
}

// graphRow describes one input graph and the exact answer its job must
// give; Planned is the planner's pick as trid reported it.
type graphRow struct {
	Nodes       int            `json:"n"`
	Edges       int64          `json:"m"`
	Triangles   int64          `json:"triangles"`
	Method      string         `json:"method"`
	Order       string         `json:"order"`
	Planned     string         `json:"planned,omitempty"`
	JobTris     int64          `json:"job_triangles"`
	ModelOps    int64          `json:"model_ops"`
	Passes      int64          `json:"passes,omitempty"`
	IO          extmem.IOStats `json:"io"`
	Comparisons int64          `json:"comparisons,omitempty"`
}

// segments is how many times a run sets trid up and measures a share of
// the closed loop on it; setup_s is the median set-up.
const segments = 10

// warmupOps run in every set-up, after registration.
const warmupOps = 2

type bench struct {
	cfg    config
	w      workload
	inputs []*input
	karate []byte
	yard   *yardstick
	// planned holds the planner pick trid reported for each graph; a
	// different pick later in the run fails it.
	planned []string
	next    int // op counter; cold ops cycle through the inputs with it
}

func run(cfg config, out io.Writer) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	nodes := w.nodes
	if cfg.nodes > 0 {
		nodes = cfg.nodes
	}
	b := &bench{cfg: cfg, w: w, inputs: make([]*input, w.graphs), planned: make([]string, w.graphs), yard: newYardstick()}
	for k := range b.inputs {
		if b.inputs[k], err = makeInput(w, nodes, cfg.seed, k); err != nil {
			return err
		}
	}
	if b.karate, err = os.ReadFile(filepath.Join(cfg.fixtures, "karate.mtx")); err != nil {
		return err
	}
	info := runInfo{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		KernelCoeffs: planner.CalibrateKernels(),
	}
	var res *result
	if cfg.trace {
		res, err = b.traced(&info)
	} else {
		res, err = b.untraced(&info)
	}
	if err != nil {
		return err
	}
	for k, in := range b.inputs {
		info.Graphs = append(info.Graphs, graphRow{
			Nodes: in.g.NumNodes(), Edges: in.g.NumEdges(), Triangles: in.triangles,
			Method: in.method.String(), Order: in.kind.String(), Planned: b.planned[k],
			JobTris: in.want.triangles, ModelOps: in.want.modelOps,
			Passes: in.want.passes, IO: in.want.io, Comparisons: in.want.comparisons,
		})
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]runInfo{"info": info}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func (b *bench) daemonArgs() []string {
	args := []string{"-upload-dir", b.cfg.spool, "-drain-timeout", "10s"}
	if b.w.cold {
		// Room for the largest graph and its orientation, but not for two
		// graphs: registering the next graph evicts the previous one.
		var most int64
		for _, in := range b.inputs {
			n, m := int64(in.g.NumNodes()), in.g.NumEdges()
			most = max(most, 16*(n+1)+20*n+16*m)
		}
		args = append(args, "-cache-bytes", fmt.Sprint(most+most/20))
	}
	return args
}

// setUp starts trid, registers the workload's resident graph and runs
// the warm-up ops; the elapsed time is the workload's set-up time. The
// daemon is stopped on error.
func (b *bench) setUp() (d *daemon, elapsed time.Duration, err error) {
	t0 := time.Now()
	if d, err = startDaemon(b.cfg.trid, b.daemonArgs()...); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			_ = d.stop()
			d = nil
		}
	}()
	if !b.w.cold {
		id, err := d.register(b.inputs[0].body)
		if err != nil {
			return d, 0, err
		}
		if id != b.inputs[0].id {
			return d, 0, fmt.Errorf("trid registered id %s, want %s", id, b.inputs[0].id)
		}
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := b.op(d); err != nil {
			return d, 0, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return d, time.Since(t0), nil
}

// errPlanChanged fails a run whose planner pick flips between ops.
var errPlanChanged = errors.New("planned pair changed within the run")

// op runs and checks one op.
func (b *bench) op(d *daemon) (*server.JobView, error) {
	k := 0
	if b.w.cold {
		k = b.next % len(b.inputs)
	}
	b.next++
	in := b.inputs[k]
	spec := b.w.spec
	spec.Graph = in.id
	if b.w.cold {
		id, err := d.register(in.body)
		if err != nil {
			return nil, err
		}
		spec.Graph = id
	}
	v, err := d.job(spec)
	if err != nil {
		return nil, err
	}
	if err := in.check(b.w, v); err != nil {
		return v, err
	}
	pick := ""
	if v.PlannedMethod != "" {
		pick = v.PlannedMethod + "/" + v.PlannedOrder + "/" + v.PlannedKernel
	}
	if b.planned[k] == "" {
		b.planned[k] = pick
	} else if pick != b.planned[k] {
		return v, fmt.Errorf("%w: graph %d ran %q after %q", errPlanChanged, k, pick, b.planned[k])
	}
	return v, nil
}

// sanity registers the karate fixture and expects its 45 triangles.
func (b *bench) sanity(d *daemon) error {
	id, err := d.register(b.karate)
	if err != nil {
		return err
	}
	v, err := d.job(server.JobSpec{Graph: id})
	if err != nil {
		return err
	}
	if v.Status != "done" || v.Triangles != 45 {
		return fmt.Errorf("karate: status %s, %d triangles, want done, 45", v.Status, v.Triangles)
	}
	return nil
}

// measurement is the closed loop's record.
type measurement struct {
	lats              []float64 // ms, every attempted op
	yard              []float64 // ms, yardstick times between untraced ops
	attempted, failed int
	hits              int           // ops whose job reported cache_hit
	streak            int           // failures in a row
	wall              time.Duration // time spent in ops
}

// errDaemonGone stops a loop after maxConsecutiveFailures failed ops in
// a row: the daemon has most likely gone away.
var errDaemonGone = errors.New("too many consecutive failed ops")

const maxConsecutiveFailures = 10

// measureOp runs one timed op and records it in m. Only a planner flip
// or a dead daemon is returned as an error; other failures are counted.
func (b *bench) measureOp(d *daemon, m *measurement) error {
	t0 := time.Now()
	v, err := b.op(d)
	m.lats = append(m.lats, float64(time.Since(t0))/float64(time.Millisecond))
	m.attempted++
	if v != nil && v.CacheHit {
		m.hits++
	}
	switch {
	case err == nil:
		m.streak = 0
		return nil
	case errors.Is(err, errPlanChanged):
		return err
	}
	m.failed++
	m.streak++
	if m.failed <= 3 {
		fmt.Fprintln(os.Stderr, "jobbench: op failed:", err)
	}
	if m.streak == maxConsecutiveFailures {
		return fmt.Errorf("%w: %v", errDaemonGone, err)
	}
	return nil
}

// measure runs ops for the given time, at least one, and adds them to
// m. The yardstick runs after every op, while trid is idle; the time it
// takes is left out of the loop's wall time.
func (b *bench) measure(d *daemon, seconds float64, m *measurement) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		err := b.measureOp(d, m)
		m.wall += time.Since(t0)
		if err != nil {
			return err
		}
		ms, err := b.yard.time()
		if err != nil {
			return err
		}
		m.yard = append(m.yard, ms)
	}
	return nil
}

// untraced runs the workload's segments. Each sets up a fresh trid and
// measures a share of the closed loop on it, so that what one trid
// process happens to get — its heap layout, the moment its collector
// runs — is pooled over several processes instead of deciding the run.
func (b *bench) untraced(info *runInfo) (*result, error) {
	c0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	var m measurement
	for r := 0; r < segments; r++ {
		took, peak, err := b.segment(r == 0, &m)
		if err != nil {
			return nil, err
		}
		info.SetupS = append(info.SetupS, took.Seconds())
		info.RSSMB = append(info.RSSMB, peak)
	}
	c1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	info.Ops = m.attempted
	info.StealFrac = c1.since(c0).stolenFrac()
	warnSteal(info.StealFrac)
	info.P50MS, info.P90MS = percentile(m.lats, 50), percentile(m.lats, 90)
	info.JobsPerS = float64(m.attempted-m.failed) / m.wall.Seconds()
	info.YardstickMS = median(m.yard)
	scale := yardstickNominalMS / info.YardstickMS
	return &result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metric{
			"job_p50_ms":  {info.P50MS * scale, "ms"},
			"job_p90_ms":  {info.P90MS * scale, "ms"},
			"jobs_per_s":  {info.JobsPerS / scale, "1/s"},
			"setup_s":     {median(info.SetupS) * scale, "s"},
			"rss_peak_mb": {median(info.RSSMB), "MB"},
			"ok_frac":     {float64(m.attempted-m.failed) / float64(m.attempted), "fraction"},
		},
	}, nil
}

// segment sets trid up, runs the sanity row on the first segment only,
// measures the segment's share of the loop into m and stops trid. It
// returns the set-up time and trid's peak RSS.
func (b *bench) segment(first bool, m *measurement) (took time.Duration, rss float64, err error) {
	d, took, err := b.setUp()
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if stopErr := d.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stopping trid: %w", stopErr)
		}
	}()
	if first {
		if err := b.sanity(d); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	if err := b.measure(d, b.cfg.seconds/segments, m); err != nil {
		return 0, 0, err
	}
	rss, err = d.peakRSSMB()
	return took, rss, err
}

// traced alternates untraced ops against trid, for the job latency the
// layers are subtracted from, with the same ops replayed layer by layer
// in this process, so that both halves see the same host conditions.
func (b *bench) traced(info *runInfo) (*result, error) {
	d, _, err := b.setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			_ = d.stop()
		}
	}()
	if err := b.sanity(d); err != nil {
		return nil, err
	}
	runtime.GC()
	c0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var m measurement
	var rc replayCounts
	start := time.Now()
	deadline := start.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := b.measureOp(d, &m); err != nil {
			return nil, err
		}
		if err := b.replayOp(tr, i, &rc); err != nil {
			return nil, err
		}
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	c1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	info.StealFrac = c1.since(c0).stolenFrac()
	warnSteal(info.StealFrac)
	times := tr.analyze()
	unattributed, err := unattributedMS(m.lats, times)
	if err != nil {
		return nil, err
	}
	info.Ops, info.ReplayedOps = m.attempted, rc.ops
	slowdown := 0.0
	if b.w.spec.Method == "auto" && b.w.spec.Parts == 0 {
		if slowdown, err = pickSlowdown(b.inputs[0], 3); err != nil {
			return nil, err
		}
	}
	return &result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: layerMetrics(b.w, m, times, rc, slowdown, unattributed),
	}, nil
}

// layerSlack is how far, as a share of the untraced p50, the replayed
// layers may exceed it before the run fails. warm-auto's residual is
// ≈ 1% of its op, within the noise of two medians of a short run.
const layerSlack = 0.05

// unattributedMS is the untraced p50 latency minus the median time the
// replayed layers cover. The layers do part of the work of an op trid
// serves, so they must not take longer than the op: layers that exceed
// it by more than timing noise mean the attribution is wrong, and fail
// the run.
func unattributedMS(lats []float64, times []opTimes) (float64, error) {
	covered := make([]float64, len(times))
	for i, t := range times {
		covered[i] = float64(t.covered) / float64(time.Millisecond)
	}
	p50, layers := percentile(lats, 50), median(covered)
	if layers > p50*(1+layerSlack) {
		return 0, fmt.Errorf("replayed layers cover %.3f ms, more than the untraced p50 latency of %.3f ms", layers, p50)
	}
	return p50 - layers, nil
}

// layerMetrics derives the per-layer metrics. A layer the workload does
// not exercise reports 0.
func layerMetrics(w workload, m measurement, times []opTimes, rc replayCounts, slowdown, unattributed float64) map[string]metric {
	ms := func(name string) float64 {
		vals := make([]float64, len(times))
		for i, t := range times {
			vals[i] = float64(t.self[name]) / float64(time.Millisecond)
		}
		return median(vals)
	}
	var sweeps, nsPerOp, mbps []float64
	for i, t := range times {
		sweep := float64(t.self["listing.run"]-t.self["digraph.arcset"]) / float64(time.Millisecond)
		sweeps = append(sweeps, sweep)
		if rc.opModelOps[i] > 0 {
			nsPerOp = append(nsPerOp, sweep*1e6/float64(rc.opModelOps[i]))
		}
		if parse := t.self["ingest.parse"].Seconds(); parse > 0 {
			mbps = append(mbps, float64(rc.opBytes[i])/1e6/parse)
		}
	}
	var useful, idle, stragglers float64
	if rc.attempts > 0 {
		useful = float64(rc.passes) / float64(rc.attempts)
		idle = 1 - float64(rc.tripleBusy)/(float64(w.spec.Workers)*float64(rc.partitionedWall))
		stragglers = float64(rc.reissued) / float64(rc.ops)
	}
	return map[string]metric{
		"server.unattributed_ms":  {unattributed, "ms"},
		"server.result_json_ms":   {ms("server.result_json"), "ms"},
		"server.register_hash_ms": {ms("server.register_hash"), "ms"},
		"registry.hit_frac":       {float64(m.hits) / float64(m.attempted), "fraction"},
		"ingest.parse_ms":         {ms("ingest.parse"), "ms"},
		"ingest.parse_mb_per_s":   {median(mbps), "MB/s"},
		"planner.compute_ms":      {ms("planner.compute"), "ms"},
		"planner.pick_slowdown":   {slowdown, "ratio"},
		"order.rank_ms":           {ms("order.rank"), "ms"},
		"digraph.orient_ms":       {ms("digraph.orient"), "ms"},
		"digraph.arcset_ms":       {ms("digraph.arcset"), "ms"},
		"listing.sweep_ms":        {median(sweeps), "ms"},
		"listing.ns_per_model_op": {median(nsPerOp), "ns"},
		"listing.model_ops":       {float64(rc.modelOps), "count"},
		"listing.comparisons":     {float64(rc.comps), "count"},
		"listing.triangles":       {float64(rc.triangles), "count"},
		"extmem.partition_ms":     {ms("extmem.partition"), "ms"},
		"extmem.triple_ms":        {ms("extmem.triple"), "ms"},
		"extmem.arcs_read":        {float64(rc.arcsRead), "count"},
		"extmem.passes":           {float64(rc.passes) / float64(rc.ops), "count"},
		"exec.useful_frac":        {useful, "fraction"},
		"exec.idle_frac":          {idle, "fraction"},
		"exec.stragglers":         {stragglers, "count"},
	}
}

// percentile interpolates linearly between closest ranks.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }
