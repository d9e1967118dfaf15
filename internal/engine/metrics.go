package engine

import (
	"time"

	"wirelesshart/internal/obs"
)

// solveLatencyBuckets are the histogram upper bounds for solve latency in
// seconds (250us .. 2.5s); the +Inf bucket is implicit. They back both the
// Prometheus exposition and the JSON snapshot's interpolated quantiles.
var solveLatencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5,
}

// batchSizeBuckets are the histogram upper bounds for sub-scenarios per
// /v1/batch request.
var batchSizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250}

// Metrics counts the engine's work on top of an obs.Registry, so the same
// counters feed the legacy JSON snapshot and the Prometheus exposition at
// /metrics/prom. All methods are safe for concurrent use; counters only
// ever increase, in-flight is a gauge.
type Metrics struct {
	reg *obs.Registry

	solves       *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	deduped      *obs.Counter
	errors       *obs.Counter
	inFlight     *obs.Gauge
	kernelHits   *obs.Counter
	kernelMisses *obs.Counter
	structHits   *obs.Counter
	structMisses *obs.Counter
	solveSeconds *obs.Histogram

	batchRequests   *obs.Counter
	batchScenarios  *obs.Counter
	batchDeduped    *obs.Counter
	batchSolved     *obs.Counter
	batchSize       *obs.Histogram
	batchSubSeconds *obs.Histogram

	peerForwarded     *obs.Counter
	peerForwardErrors *obs.Counter
	peerServed        *obs.Counter
	peerDegradedLocal *obs.Counter

	snapshotSaves        *obs.Counter
	snapshotLoads        *obs.Counter
	snapshotSavedEntries *obs.Gauge
	snapshotLoadedEntries *obs.Gauge
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:          reg,
		solves:       reg.Counter("whart_engine_solves_total", "Full scenario solves performed."),
		cacheHits:    reg.Counter("whart_engine_cache_hits_total", "Evaluate calls served from the scenario cache."),
		cacheMisses:  reg.Counter("whart_engine_cache_misses_total", "Evaluate calls that had to solve."),
		deduped:      reg.Counter("whart_engine_deduped_total", "Evaluate calls that piggybacked on an in-flight solve."),
		errors:       reg.Counter("whart_engine_errors_total", "Failed evaluations."),
		inFlight:     reg.Gauge("whart_engine_in_flight", "Solves currently running."),
		kernelHits:   reg.Counter("whart_engine_kernel_cache_hits_total", "Path lookups answered by the path-result memo (no bind, no solve)."),
		kernelMisses: reg.Counter("whart_engine_kernel_cache_misses_total", "Path lookups that missed the path-result memo and solved the path."),
		structHits:   reg.Counter("whart_engine_struct_cache_hits_total", "Path-structure lookups served from the structure cache."),
		structMisses: reg.Counter("whart_engine_struct_cache_misses_total", "Path-structure lookups that ran Algorithm 1."),
		solveSeconds: reg.Histogram("whart_engine_solve_duration_seconds", "End-to-end scenario solve latency.", solveLatencyBuckets),

		batchRequests:  reg.Counter("whart_engine_batch_requests_total", "Batch evaluations received."),
		batchScenarios: reg.Counter("whart_engine_batch_scenarios_total", "Sub-scenarios received across all batch evaluations."),
		batchDeduped:   reg.Counter("whart_engine_batch_deduped_total", "Batch sub-scenarios that duplicated an earlier sub-scenario of the same request."),
		batchSolved:    reg.Counter("whart_engine_batch_solved_total", "Batch sub-scenarios solved fresh (residual misses after dedup, cache and single-flight)."),
		batchSize:      reg.Histogram("whart_engine_batch_size", "Sub-scenarios per batch evaluation.", batchSizeBuckets),
		batchSubSeconds: reg.Histogram("whart_engine_batch_subscenario_duration_seconds",
			"Per-sub-scenario solve latency within a batch (the batch's solve wall time amortized over its residual misses).", solveLatencyBuckets),

		peerForwarded:     reg.Counter("whart_engine_peer_forwarded_total", "Solves forwarded to their ring-owner replica."),
		peerForwardErrors: reg.Counter("whart_engine_peer_forward_errors_total", "Forwarded solves that failed (peer down, breaker open, or bad response)."),
		peerServed:        reg.Counter("whart_engine_peer_served_total", "Peer-protocol solve requests served for other replicas."),
		peerDegradedLocal: reg.Counter("whart_engine_peer_degraded_local_total", "Solves of peer-owned keys performed locally because the owner was unreachable."),

		snapshotSaves:        reg.Counter("whart_engine_snapshot_saves_total", "Warm-cache snapshots written."),
		snapshotLoads:        reg.Counter("whart_engine_snapshot_loads_total", "Warm-cache snapshots restored."),
		snapshotSavedEntries: reg.Gauge("whart_engine_snapshot_saved_entries", "Entries written by the most recent snapshot save."),
		snapshotLoadedEntries: reg.Gauge("whart_engine_snapshot_loaded_entries",
			"Entries restored by the most recent snapshot load."),
	}
	reg.GaugeFunc("whart_engine_batch_dedup_ratio",
		"Cumulative fraction of batch sub-scenarios served without a fresh solve (request dedup, cache, or single-flight).",
		func() float64 { return m.batchDedupRatio() })
	return m
}

// batchDedupRatio is the cumulative fraction of batch sub-scenarios that
// did not need a fresh solve; zero before any batch arrives.
func (m *Metrics) batchDedupRatio() float64 {
	total := m.batchScenarios.Value()
	if total == 0 {
		return 0
	}
	return 1 - float64(m.batchSolved.Value())/float64(total)
}

// Registry exposes the underlying metric registry — the source of the
// Prometheus exposition at /metrics/prom.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Solves returns the number of full scenario solves performed.
func (m *Metrics) Solves() int64 { return m.solves.Value() }

// CacheHits returns the number of Evaluate calls served from the cache.
func (m *Metrics) CacheHits() int64 { return m.cacheHits.Value() }

// CacheMisses returns the number of Evaluate calls that had to solve.
func (m *Metrics) CacheMisses() int64 { return m.cacheMisses.Value() }

// Deduped returns the number of Evaluate calls that piggybacked on an
// identical in-flight solve (single-flight followers).
func (m *Metrics) Deduped() int64 { return m.deduped.Value() }

// InFlight returns the number of solves currently running.
func (m *Metrics) InFlight() int64 { return int64(m.inFlight.Value()) }

// KernelCacheHits returns the number of steady-state path lookups
// answered by the path-result memo, which skip both bind and solve. The
// name predates the memo, which replaced a cache of compiled kernels.
func (m *Metrics) KernelCacheHits() int64 { return m.kernelHits.Value() }

// KernelCacheMisses returns the number of distinct steady-state paths
// that missed the path-result memo and were bound and solved.
func (m *Metrics) KernelCacheMisses() int64 { return m.kernelMisses.Value() }

// StructCacheHits returns the number of path-structure lookups served from
// the structure cache (the state space and frozen CSR pattern were reused;
// only a value bind was paid).
func (m *Metrics) StructCacheHits() int64 { return m.structHits.Value() }

// StructCacheMisses returns the number of path-structure lookups that had
// to run Algorithm 1 and compile a fresh CSR pattern.
func (m *Metrics) StructCacheMisses() int64 { return m.structMisses.Value() }

func (m *Metrics) observeLatency(d time.Duration) {
	m.solveSeconds.Observe(d.Seconds())
}

// LatencySnapshot summarizes solve latency. The quantiles interpolate
// inside the histogram bucket holding the rank (the standard Prometheus
// estimate), replacing the old report of the raw bucket bound.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"meanMS"`
	P50MS  float64 `json:"p50MS"`
	P99MS  float64 `json:"p99MS"`
}

// Snapshot is a point-in-time copy of all engine metrics, ready for JSON.
// KernelCacheHits, KernelCacheMisses and KernelCacheLen keep their names
// but count the path-result memo: lookups it answered, distinct paths it
// missed (each then bound and solved once), and solved paths it holds.
// SolveTime covers single-scenario solves, BatchSubSolveTime /v1/batch
// sub-scenarios.
type Snapshot struct {
	Solves            int64           `json:"solves"`
	CacheHits         int64           `json:"cacheHits"`
	CacheMisses       int64           `json:"cacheMisses"`
	Deduped           int64           `json:"deduped"`
	Errors            int64           `json:"errors"`
	InFlight          int64           `json:"inFlight"`
	KernelCacheHits   int64           `json:"kernelCacheHits"`
	KernelCacheMisses int64           `json:"kernelCacheMisses"`
	KernelCacheLen    int             `json:"kernelCacheLen"`
	StructCacheHits   int64           `json:"structCacheHits"`
	StructCacheMisses int64           `json:"structCacheMisses"`
	StructCacheLen    int             `json:"structCacheLen"`
	CacheLen          int             `json:"cacheLen"`
	CacheCap          int             `json:"cacheCap"`
	Workers           int             `json:"workers"`
	SolveTime         LatencySnapshot `json:"solveTime"`
	BatchRequests     int64           `json:"batchRequests"`
	BatchScenarios    int64           `json:"batchScenarios"`
	BatchDeduped      int64           `json:"batchDeduped"`
	BatchSolved       int64           `json:"batchSolved"`
	BatchDedupRatio   float64         `json:"batchDedupRatio"`
	BatchSubSolveTime LatencySnapshot `json:"batchSubSolveTime"`

	PeerForwarded         int64 `json:"peerForwarded"`
	PeerForwardErrors     int64 `json:"peerForwardErrors"`
	PeerServed            int64 `json:"peerServed"`
	PeerDegradedLocal     int64 `json:"peerDegradedLocal"`
	SnapshotSaves         int64 `json:"snapshotSaves"`
	SnapshotLoads         int64 `json:"snapshotLoads"`
	SnapshotSavedEntries  int   `json:"snapshotSavedEntries"`
	SnapshotLoadedEntries int   `json:"snapshotLoadedEntries"`
}

func (m *Metrics) snapshot() Snapshot {
	s := Snapshot{
		Solves:            m.solves.Value(),
		CacheHits:         m.cacheHits.Value(),
		CacheMisses:       m.cacheMisses.Value(),
		Deduped:           m.deduped.Value(),
		Errors:            m.errors.Value(),
		InFlight:          int64(m.inFlight.Value()),
		KernelCacheHits:   m.kernelHits.Value(),
		KernelCacheMisses: m.kernelMisses.Value(),
		StructCacheHits:   m.structHits.Value(),
		StructCacheMisses: m.structMisses.Value(),
	}
	s.SolveTime.Count = m.solveSeconds.Count()
	if s.SolveTime.Count > 0 {
		s.SolveTime.MeanMS = m.solveSeconds.Sum() / float64(s.SolveTime.Count) * 1000
		s.SolveTime.P50MS = m.solveSeconds.Quantile(0.5) * 1000
		s.SolveTime.P99MS = m.solveSeconds.Quantile(0.99) * 1000
	}
	s.BatchRequests = m.batchRequests.Value()
	s.BatchScenarios = m.batchScenarios.Value()
	s.BatchDeduped = m.batchDeduped.Value()
	s.BatchSolved = m.batchSolved.Value()
	s.BatchDedupRatio = m.batchDedupRatio()
	s.PeerForwarded = m.peerForwarded.Value()
	s.PeerForwardErrors = m.peerForwardErrors.Value()
	s.PeerServed = m.peerServed.Value()
	s.PeerDegradedLocal = m.peerDegradedLocal.Value()
	s.SnapshotSaves = m.snapshotSaves.Value()
	s.SnapshotLoads = m.snapshotLoads.Value()
	s.SnapshotSavedEntries = int(m.snapshotSavedEntries.Value())
	s.SnapshotLoadedEntries = int(m.snapshotLoadedEntries.Value())
	s.BatchSubSolveTime.Count = m.batchSubSeconds.Count()
	if s.BatchSubSolveTime.Count > 0 {
		s.BatchSubSolveTime.MeanMS = m.batchSubSeconds.Sum() / float64(s.BatchSubSolveTime.Count) * 1000
		s.BatchSubSolveTime.P50MS = m.batchSubSeconds.Quantile(0.5) * 1000
		s.BatchSubSolveTime.P99MS = m.batchSubSeconds.Quantile(0.99) * 1000
	}
	return s
}
