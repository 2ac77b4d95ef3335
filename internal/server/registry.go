package server

import (
	"container/list"
	"fmt"
	"sync"

	"trilist/internal/core"
	"trilist/internal/digraph"
	"trilist/internal/graph"
	"trilist/internal/obsv"
	"trilist/internal/order"
	"trilist/internal/planner"
)

// The graph registry is the amortization core of the daemon: loading a
// multi-hundred-megabyte graph and relabeling it dominate the cost of a
// single listing query, so the registry keeps loaded graphs *and* their
// relabeled/oriented CSRs resident, keyed by content hash, under one
// byte budget with LRU eviction. Repeated jobs against the same graph
// and order then pay only the sweep — the regime where the paper's
// ordering results (θ_D for T1/E1, θ_RR for T2, θ_CRR for E4) translate
// directly into serving throughput.

// orientKey identifies one cached orientation of a graph. Seed only
// matters for the uniform order; it is normalized to zero otherwise so
// equivalent requests share a cache slot.
type orientKey struct {
	kind order.Kind
	seed uint64
}

// graphEntry is one resident graph plus its cached orientations and
// memoized query plan.
type graphEntry struct {
	id      string
	g       *graph.Graph
	bytes   int64 // graph + all cached orientations
	orients map[orientKey]*digraph.Oriented
	plan    *planner.Plan // memoized ranking, computed on first use
	elem    *list.Element
}

// graphBytes estimates the resident size of a CSR graph: the offsets
// (8·(n+1)) and neighbor (4·2m) arrays dominate.
func graphBytes(g *graph.Graph) int64 {
	return 8*(int64(g.NumNodes())+1) + 4*2*g.NumEdges()
}

// orientedBytes estimates the resident size of an orientation: offsets,
// split and rank arrays plus the relabeled neighbor array.
func orientedBytes(o *digraph.Oriented) int64 {
	n := int64(o.NumNodes())
	return 8*(n+1) + 8*n + 4*n + 4*2*o.NumEdges()
}

// Registry is a byte-budgeted LRU cache of loaded graphs and their
// orientations, keyed by content hash. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	workers int
	lru     *list.List // front = most recently used *graphEntry
	byID    map[string]*graphEntry
	m       *serverMetrics // may be nil (unit tests)
}

// NewRegistry returns a registry that evicts least-recently-used graphs
// once resident bytes exceed budget. The most recently used entry is
// never evicted, so a single graph larger than the budget still serves.
// Cache-miss plans price their candidate grid on up to workers
// goroutines (values below 2 plan serially); rank/orient rebuilds are
// serial.
func NewRegistry(budget int64, workers int, m *serverMetrics) *Registry {
	return &Registry{
		budget:  budget,
		workers: workers,
		lru:     list.New(),
		byID:    make(map[string]*graphEntry),
		m:       m,
	}
}

// Add registers a graph under id. If the id is already resident the
// existing entry is retained (content hashing makes collisions
// re-registrations) and false is returned.
func (r *Registry) Add(id string, g *graph.Graph) (added bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byID[id]; ok {
		r.lru.MoveToFront(e.elem)
		return false
	}
	e := &graphEntry{id: id, g: g, bytes: graphBytes(g), orients: make(map[orientKey]*digraph.Oriented)}
	e.elem = r.lru.PushFront(e)
	r.byID[id] = e
	r.used += e.bytes
	r.evictLocked()
	r.gaugesLocked()
	return true
}

// Get returns the resident graph for id, refreshing its recency.
func (r *Registry) Get(id string) (*graph.Graph, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(e.elem)
	return e.g, true
}

// Oriented returns the relabeled, oriented CSR of graph id under the
// given order, computing and caching it on first use. hit reports
// whether the orientation was already resident — the cache-hit meter of
// the serving path. On a miss the rank and orient steps are recorded as
// stage spans on rec (which may be nil); a hit records nothing, since
// the job paid neither stage.
func (r *Registry) Oriented(id string, kind order.Kind, seed uint64, rec *obsv.Recorder) (o *digraph.Oriented, hit bool, err error) {
	if kind != order.KindUniform {
		seed = 0
	}
	key := orientKey{kind: kind, seed: seed}

	r.mu.Lock()
	e, ok := r.byID[id]
	if !ok {
		r.mu.Unlock()
		return nil, false, fmt.Errorf("server: graph %q not registered", id)
	}
	r.lru.MoveToFront(e.elem)
	if o, ok := e.orients[key]; ok {
		r.mu.Unlock()
		if r.m != nil {
			r.m.cacheHits.Inc()
		}
		return o, true, nil
	}
	g := e.g
	r.mu.Unlock()

	// Relabel + orient outside the lock: it is O(n + m) and must not
	// block unrelated lookups. A concurrent request for the same key may
	// duplicate the work; the first writer's result is kept, which is
	// sound because orientation is deterministic given kind and seed.
	if r.m != nil {
		r.m.cacheMisses.Inc()
	}
	o, err = core.Prepare(g, core.Config{Order: kind, Seed: seed, Recorder: rec})
	if err != nil {
		return nil, false, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	// The entry may have been evicted while we oriented; the caller
	// still gets a usable orientation, it just isn't cached.
	if e2, ok := r.byID[id]; ok {
		if cached, dup := e2.orients[key]; dup {
			o = cached
		} else {
			e2.orients[key] = o
			ob := orientedBytes(o)
			e2.bytes += ob
			r.used += ob
			r.evictLocked()
		}
		r.gaugesLocked()
	}
	return o, false, nil
}

// Plan returns the memoized query plan for graph id, computing it on
// first use. Like Oriented, the computation runs outside the lock (it
// is O(grid × max-degree) and must not block unrelated lookups); a
// concurrent request for the same graph may duplicate the work, and the
// first writer's plan is kept — sound because planning is a pure
// function of the degree histogram.
func (r *Registry) Plan(id string) (*planner.Plan, error) {
	r.mu.Lock()
	e, ok := r.byID[id]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	r.lru.MoveToFront(e.elem)
	if e.plan != nil {
		p := e.plan
		r.mu.Unlock()
		return p, nil
	}
	g := e.g
	r.mu.Unlock()

	p, err := planner.Compute(g, planner.WithWorkers(r.workers))
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	// The entry may have been evicted while we planned; the caller still
	// gets a usable plan, it just isn't memoized.
	if e2, ok := r.byID[id]; ok && e2.g == g {
		if e2.plan != nil {
			return e2.plan, nil
		}
		e2.plan = p
		if r.m != nil {
			r.m.plannerPlans.Inc()
		}
	}
	return p, nil
}

// Snapshot describes one resident graph for the HTTP listing.
type Snapshot struct {
	ID           string `json:"id"`
	Nodes        int    `json:"nodes"`
	Edges        int64  `json:"edges"`
	Bytes        int64  `json:"bytes"`
	Orientations int    `json:"orientations"`
}

// Snapshots lists resident graphs in most-recently-used order.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*graphEntry)
		out = append(out, Snapshot{
			ID: e.id, Nodes: e.g.NumNodes(), Edges: e.g.NumEdges(),
			Bytes: e.bytes, Orientations: len(e.orients),
		})
	}
	return out
}

// Len returns the number of resident graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// UsedBytes returns the current resident-byte estimate.
func (r *Registry) UsedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// evictLocked drops least-recently-used entries until the budget holds,
// always keeping the most recent entry resident.
func (r *Registry) evictLocked() {
	for r.used > r.budget && r.lru.Len() > 1 {
		el := r.lru.Back()
		e := el.Value.(*graphEntry)
		r.lru.Remove(el)
		delete(r.byID, e.id)
		r.used -= e.bytes
		if r.m != nil {
			r.m.cacheEvictions.Inc()
		}
	}
}

func (r *Registry) gaugesLocked() {
	if r.m == nil {
		return
	}
	r.m.cacheBytes.Set(r.used)
	r.m.graphsResident.Set(int64(r.lru.Len()))
}
