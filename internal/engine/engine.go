package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/obs"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
)

// ErrBadScenario wraps every error caused by the caller's scenario or
// query (invalid spec, unknown node, oversized peer path), letting HTTP
// callers distinguish 4xx from 5xx.
var ErrBadScenario = errors.New("engine: invalid scenario")

// Config sizes an Engine.
type Config struct {
	// Workers bounds the number of concurrent DTMC solves. Default
	// GOMAXPROCS.
	Workers int
	// CacheSize bounds the scenario result cache, the path-result memo
	// and the structure cache (entries each). Default 256.
	CacheSize int
	// TraceCapacity bounds the in-memory ring of recent solve traces
	// served at /debug/traces. Default obs.DefaultTraceCapacity.
	TraceCapacity int
	// TraceLogger, when non-nil, receives one structured record per
	// finished solve trace (per-stage timings included) — the slog sink
	// behind whart-server's -logjson flag.
	TraceLogger *slog.Logger
	// Ring, when non-nil, makes the engine one replica of a cluster:
	// scenario keys the ring assigns to another member are forwarded to
	// that owner over the peer protocol, with a local solve as the
	// degraded path when the owner is unreachable (DESIGN.md §15).
	Ring *cluster.Ring
	// PeerClient carries forwarded solves to peer replicas. Nil with a
	// Ring set means a cluster.NewClient with default policies.
	PeerClient *cluster.Client
}

// Engine evaluates WirelessHART scenarios concurrently with caching and
// single-flight deduplication. Create one with New; the zero value is not
// usable.
type Engine struct {
	workers int
	sem     chan struct{} // worker pool: one token per concurrent solve

	mu       sync.Mutex
	cache    *lruCache        // Key -> *Result (immutable once cached)
	inflight map[string]*call // Key -> the solve in progress

	memoMu sync.Mutex
	memo   *lruCache // core.ProcessKey -> *pathEntry, shared read-only

	structMu    sync.Mutex
	structCache *lruCache // pathmodel.StructKey -> *pathmodel.Structure

	metrics *Metrics
	traces  *obs.Recorder

	ring *cluster.Ring   // nil when standalone
	peer *cluster.Client // nil when standalone

	snapMu   sync.Mutex
	snapshot SnapshotStatus
}

// call is one in-flight solve; followers wait on done.
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// New returns an engine with the given bounds.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	e := &Engine{
		workers:     cfg.Workers,
		sem:         make(chan struct{}, cfg.Workers),
		cache:       newLRU(cfg.CacheSize),
		inflight:    map[string]*call{},
		memo:        newLRU(cfg.CacheSize),
		structCache: newLRU(cfg.CacheSize),
		metrics:     newMetrics(),
		traces:      obs.NewRecorder(cfg.TraceCapacity),
		ring:        cfg.Ring,
		peer:        cfg.PeerClient,
		snapshot:    SnapshotStatus{State: SnapshotNone},
	}
	if e.ring != nil && e.peer == nil {
		e.peer = cluster.NewClient(cluster.ClientConfig{})
	}
	e.traces.SetLogger(cfg.TraceLogger)
	// Scrape-time gauges: sizes are read under their caches' locks, so
	// the Prometheus exposition always reports live occupancy.
	reg := e.metrics.reg
	reg.GaugeFunc("whart_engine_workers", "Configured worker-pool size.",
		func() float64 { return float64(e.workers) })
	reg.GaugeFunc("whart_engine_cache_entries", "Scenario results currently cached.", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.cache.len())
	})
	reg.GaugeFunc("whart_engine_cache_capacity", "Scenario cache capacity.",
		func() float64 { return float64(e.cache.cap) })
	reg.GaugeFunc("whart_engine_kernel_cache_entries", "Solved path results currently in the path-result memo.", func() float64 {
		e.memoMu.Lock()
		defer e.memoMu.Unlock()
		return float64(e.memo.len())
	})
	reg.GaugeFunc("whart_engine_struct_cache_entries", "Path structures currently cached.", func() float64 {
		e.structMu.Lock()
		defer e.structMu.Unlock()
		return float64(e.structCache.len())
	})
	return e
}

// structures is the engine's structure tier as a core.StructureCache,
// keyed by pathmodel.StructKey. It shares the link-model-free state space:
// scenarios that differ only in link quality or failure injections — whose
// overridden paths can never hit the path-result memo — still reuse the
// validated geometry and pay one value bind.
// Hits and misses are exported through /metrics.
type structures struct{ e *Engine }

func (k structures) GetStructure(key string) (*pathmodel.Structure, bool) {
	k.e.structMu.Lock()
	v, ok := k.e.structCache.get(key)
	k.e.structMu.Unlock()
	if !ok {
		k.e.metrics.structMisses.Add(1)
		return nil, false
	}
	k.e.metrics.structHits.Add(1)
	return v.(*pathmodel.Structure), true
}

func (k structures) PutStructure(key string, s *pathmodel.Structure) {
	k.e.structMu.Lock()
	k.e.structCache.add(key, s)
	k.e.structMu.Unlock()
}

// memoGet returns the memo entry of the path DTMC with the given
// core.ProcessKey. The path-result memo is the engine's one path-level
// memo: scenario solves, batch solves and peer-path predictions that
// realize identical steady-state path DTMCs (same slots, frame, interval,
// TTL and link processes) share one solve. Only paths without an
// availability override have a key, so failure-injected paths never enter
// it. Lookups feed the kernelCache* counters; the caller counts them.
func (e *Engine) memoGet(key string) (*pathEntry, bool) {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	v, ok := e.memo.get(key)
	if !ok {
		return nil, false
	}
	return v.(*pathEntry), true
}

func (e *Engine) memoPut(key string, ent *pathEntry) {
	e.memoMu.Lock()
	e.memo.add(key, ent)
	e.memoMu.Unlock()
}

// pathEntry is one path-result memo value: a solved path DTMC and what its
// solve fixes for every scenario that realizes the same key. The measures
// depend on the result and the downlink frame alone. The rest of the
// report depends on them and on the slots, which are part of the key, so
// only the source and route names differ between scenarios. Entries are
// immutable once published.
type pathEntry struct {
	// pa holds the solve and the path's measures; Source and Path name the
	// scenario that measured it.
	pa core.PathAnalysis
	// fdown is the downlink frame the measures were derived under, or -1
	// when the entry holds the solve alone (a peer path, or a path whose
	// measurement failed). A scenario reuses the measures only under an
	// equal frame.
	fdown int
	// path is the path's report without source and route, its encoded
	// members stored.
	path PathResult
}

// solveOnly is the entry of a solve that carries no measures.
func solveOnly(res *pathmodel.Result) *pathEntry {
	return &pathEntry{pa: core.PathAnalysis{Result: res}, fdown: -1}
}

// newPathEntry derives the entry of a solve measured as pa under fdown,
// with the path's slots.
func newPathEntry(pa *core.PathAnalysis, fdown int, slots []int) *pathEntry {
	p := measuredPath(pa, slots)
	p.tail = encodeTail(&p)
	return &pathEntry{pa: *pa, fdown: fdown, path: p}
}

// measuredPath is a path's report without its source and route names.
func measuredPath(pa *core.PathAnalysis, slots []int) PathResult {
	p := PathResult{
		Hops:            pa.Path.Hops(),
		Slots:           slots,
		Reachability:    pa.Reachability,
		CycleProbs:      measures.CycleFunction(pa.Result),
		ExpectedDelayMS: pa.ExpectedDelayMS,
		Utilization:     pa.UtilizationExact,
	}
	if pa.DelayDist != nil {
		p.Delay = delayPoints(pa.DelayDist)
	}
	return p
}

// DelayPoint is one support point of a delay distribution.
type DelayPoint struct {
	MS   float64 `json:"ms"`
	Prob float64 `json:"prob"`
}

// PathResult holds one uplink path's solved measures.
type PathResult struct {
	Source          string       `json:"source"`
	Route           []string     `json:"route"`
	Hops            int          `json:"hops"`
	Slots           []int        `json:"slots"`
	Reachability    float64      `json:"reachability"`
	CycleProbs      []float64    `json:"cycleProbs"`
	ExpectedDelayMS float64      `json:"expectedDelayMS"`
	Delay           []DelayPoint `json:"delay,omitempty"`
	Utilization     float64      `json:"utilization"`

	// tail, when set, is the encoding of the members from Hops on at the
	// depth a Result writes its paths, shared with the path-result memo.
	tail []byte
}

// Result is a solved scenario. Results are cached and shared between
// concurrent callers: treat them as read-only. The HTTP API encodes a
// Result at most once, on its first response, and writes the stored
// bytes on every later one.
type Result struct {
	// Key is the scenario's canonical cache key.
	Key string `json:"key"`
	// Fup is the uplink frame size of the realized schedule.
	Fup int `json:"fup"`
	// Is is the reporting interval in super-frames.
	Is int `json:"is"`
	// Schedule renders the schedule in the paper's eta notation.
	Schedule string `json:"schedule"`
	// Paths holds the per-source reports, sorted by source name.
	Paths []PathResult `json:"paths"`
	// OverallMeanDelayMS is E[Gamma] (Eq. 13); zero if nothing is delivered.
	OverallMeanDelayMS float64 `json:"overallMeanDelayMS"`
	// OverallDelay is the network delay distribution (Fig. 14 style).
	OverallDelay []DelayPoint `json:"overallDelay,omitempty"`
	// Utilization is the exact network utilization (Eq. 11).
	Utilization float64 `json:"utilization"`

	encodeOnce sync.Once // guards encoded and encodeErr; see encoding
	encoded    []byte
	encodeErr  error
}

// Path returns the report for one source name.
func (r *Result) Path(source string) (PathResult, bool) {
	for _, p := range r.Paths {
		if p.Source == source {
			return p, true
		}
	}
	return PathResult{}, false
}

// Metrics returns the engine's live counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Registry returns the metric registry backing /metrics/prom.
func (e *Engine) Registry() *obs.Registry { return e.metrics.reg }

// Traces returns the recorder holding the most recent solve traces — the
// data behind /debug/traces.
func (e *Engine) Traces() *obs.Recorder { return e.traces }

// Ring returns the cluster ring this engine is a replica of, or nil when
// standalone.
func (e *Engine) Ring() *cluster.Ring { return e.ring }

// MetricsSnapshot returns a point-in-time copy of all engine metrics.
func (e *Engine) MetricsSnapshot() Snapshot {
	s := e.metrics.snapshot()
	e.mu.Lock()
	s.CacheLen = e.cache.len()
	s.CacheCap = e.cache.cap
	e.mu.Unlock()
	e.memoMu.Lock()
	s.KernelCacheLen = e.memo.len()
	e.memoMu.Unlock()
	e.structMu.Lock()
	s.StructCacheLen = e.structCache.len()
	e.structMu.Unlock()
	s.Workers = e.workers
	return s
}

// Evaluate returns the solved scenario, from the cache when possible.
// Concurrent calls with canonically identical scenarios share one solve.
// In a cluster, keys owned by another replica are forwarded to their
// owner (degrading to a local solve if it is unreachable); the local
// cache is always consulted first, so restored snapshots and previously
// forwarded results are served from any node. The returned Result is
// shared: treat it as read-only. Evaluate is EvaluateBatch's path with a
// batch of one, minus the batch bookkeeping.
func (e *Engine) Evaluate(ctx context.Context, s *spec.Spec) (*Result, error) {
	return e.evaluateOne(ctx, s, true)
}

// EvaluatePeer is Evaluate with forwarding disabled: the handler behind
// the peer protocol solves locally no matter what its own ring says, so
// replicas with momentarily divergent ring configurations can never
// bounce a request between each other.
func (e *Engine) EvaluatePeer(ctx context.Context, s *spec.Spec) (*Result, error) {
	return e.evaluateOne(ctx, s, false)
}

func (e *Engine) evaluateOne(ctx context.Context, s *spec.Spec, forward bool) (*Result, error) {
	out, err := e.evaluate(ctx, []*spec.Spec{s}, forward, false)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// assembleResult converts one scenario's solved network analysis into the
// engine's wire result — the tail of a solve. entries, when non-nil, holds
// per path the memo entry whose measures the analysis reused, or nil; a
// reused path takes the entry's report and names it.
func assembleResult(key string, built *spec.Built, na *core.NetworkAnalysis, entries []*pathEntry) (*Result, error) {
	out := &Result{
		Key:                key,
		Fup:                built.Schedule.Fup(),
		Is:                 built.Analyzer.Is(),
		Schedule:           built.Schedule.Format(built.Net),
		OverallMeanDelayMS: na.OverallMeanDelayMS,
		Utilization:        na.UtilizationExact,
	}
	out.OverallDelay = delayPoints(na.OverallDelay)
	out.Paths = make([]PathResult, len(na.Paths))
	for i, pa := range na.Paths {
		src, err := built.Net.Node(pa.Source)
		if err != nil {
			return nil, err
		}
		nodes := pa.Path.Nodes()
		route := make([]string, len(nodes))
		for j, id := range nodes {
			node, err := built.Net.Node(id)
			if err != nil {
				return nil, err
			}
			route[j] = node.Name
		}
		var p PathResult
		if entries != nil && entries[i] != nil {
			p = entries[i].path
		} else {
			p = measuredPath(pa, built.Schedule.SlotsForSource(pa.Source))
		}
		p.Source, p.Route = src.Name, route
		out.Paths[i] = p
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Source < out.Paths[j].Source })
	return out, nil
}

// pmf is the part of a delay distribution (a *stats.PMF) that a result
// lists.
type pmf interface {
	Support() []float64
	Prob(x float64) float64
}

// delayPoints lists a distribution's support points in ascending order, or
// nil when it has none.
func delayPoints(d pmf) []DelayPoint {
	xs := d.Support()
	if len(xs) == 0 {
		return nil
	}
	out := make([]DelayPoint, len(xs))
	for i, x := range xs {
		out[i] = DelayPoint{MS: x, Prob: d.Prob(x)}
	}
	return out
}

// Candidate is one attachment option for a joining node: the existing node
// to attach to and the measured linear Eb/N0 of each peer-path hop, the hop
// leaving the new node first (paper Fig. 11; a single entry is the common
// one-hop attachment).
type Candidate struct {
	Via   string    `json:"via"`
	EbN0s []float64 `json:"ebN0s"`
}

// Prediction is the outcome of a composed-path routing prediction (Eq. 12).
type Prediction struct {
	Via          string    `json:"via"`
	Hops         int       `json:"hops"`
	Reachability float64   `json:"reachability"`
	CycleProbs   []float64 `json:"cycleProbs"`
}

// Predict evaluates the scenario (cached) and composes the candidate peer
// path with the existing uplink path of cand.Via, reproducing the paper's
// Section VI-E routing prediction without re-solving the network.
func (e *Engine) Predict(ctx context.Context, s *spec.Spec, cand Candidate) (*Prediction, error) {
	if cand.Via == "" {
		return nil, fmt.Errorf("%w: candidate needs a via node", ErrBadScenario)
	}
	if len(cand.EbN0s) == 0 {
		return nil, fmt.Errorf("%w: candidate %q needs at least one peer-hop Eb/N0", ErrBadScenario, cand.Via)
	}
	res, err := e.Evaluate(ctx, s)
	if err != nil {
		return nil, err
	}
	existing, ok := res.Path(cand.Via)
	if !ok {
		return nil, fmt.Errorf("%w: node %q is not a reporting source with an uplink path", ErrBadScenario, cand.Via)
	}
	if len(cand.EbN0s) >= res.Fup {
		return nil, fmt.Errorf("%w: peer path with %d hops does not fit the %d-slot frame",
			ErrBadScenario, len(cand.EbN0s), res.Fup)
	}
	peer, err := e.peerSolve(cand.EbN0s, res.Fup, res.Is, s.Bits())
	if err != nil {
		return nil, err
	}
	gc, err := measures.ComposeCycles(measures.CycleFunction(peer), existing.CycleProbs, res.Is)
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Via:          cand.Via,
		Hops:         existing.Hops + len(cand.EbN0s),
		Reachability: measures.CycleReachability(gc),
		CycleProbs:   gc,
	}, nil
}

// PredictRanked predicts every candidate and returns them ordered
// best-first under the paper's routing-choice rule: reachability
// descending, ties (within measures.ComposedTieTolerance) broken by the
// shorter composed path.
func (e *Engine) PredictRanked(ctx context.Context, s *spec.Spec, cands []Candidate) ([]*Prediction, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no candidates", ErrBadScenario)
	}
	preds := make([]*Prediction, len(cands))
	for i, c := range cands {
		p, err := e.Predict(ctx, s, c)
		if err != nil {
			return nil, err
		}
		preds[i] = p
	}
	sort.SliceStable(preds, func(i, j int) bool {
		return measures.BetterComposed(preds[i].Reachability, preds[i].Hops,
			preds[j].Reachability, preds[j].Hops, measures.ComposedTieTolerance)
	})
	return preds, nil
}

// peerSolve solves (or reuses) the DTMC of a standalone peer path scheduled
// in the first consecutive slots of its own frame, as the paper's peer
// paths are. The solution goes through the path-result memo like any
// steady-state path, with no measures, and on a miss the model binds onto
// the engine's structure tier. The returned result is shared: treat it as
// read-only.
func (e *Engine) peerSolve(ebN0s []float64, fup, is, bits int) (*pathmodel.Result, error) {
	slots := make([]int, len(ebN0s))
	procs := make([]link.Process, len(ebN0s))
	avails := make([]link.Availability, len(ebN0s))
	for i, x := range ebN0s {
		m, err := link.FromEbN0(x, bits, link.DefaultRecoveryProb)
		if err != nil {
			return nil, fmt.Errorf("%w: peer hop %d: %v", ErrBadScenario, i+1, err)
		}
		slots[i] = i + 1
		procs[i] = m
		avails[i] = m.Steady()
	}
	key := core.ProcessKey(slots, fup, is, 0, procs)
	if ent, ok := e.memoGet(key); ok {
		e.metrics.kernelHits.Add(1)
		return ent.pa.Result, nil
	}
	e.metrics.kernelMisses.Add(1)
	st, ok := structures{e}.GetStructure(pathmodel.StructKey(slots, fup, is, 0))
	if !ok {
		var err error
		st, err = pathmodel.BuildStructure(slots, fup, is, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: peer path: %v", ErrBadScenario, err)
		}
		structures{e}.PutStructure(st.Key(), st)
	}
	m, err := st.Bind(avails)
	if err != nil {
		return nil, fmt.Errorf("%w: peer path: %v", ErrBadScenario, err)
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	e.memoPut(key, solveOnly(res))
	return res, nil
}
