// Package fleet sweeps whole populations of generated WirelessHART
// networks through the evaluation engine and aggregates
// distribution-level results: where one engine solve answers "how does
// this network perform?", a fleet run answers the population-level
// question — what fraction of deployments meet a delay or utilization
// target, and where do the p10/p50/p90 bands lie across the design
// space.
//
// Each network of a population is generated from (seed, index) by
// internal/gen, evaluated independently under a worker pool (the
// engine's structure tier and path-result memo do the heavy lifting
// across similar geometries), and reduced to scalar measures; per-network
// failures are isolated into the report rather than aborting the sweep.
// A fixed seed yields a byte-identical report, which the fleet CLI
// echoes for reproducibility.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wirelesshart/internal/engine"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/stats"
)

// Config sizes a fleet run.
type Config struct {
	// Seed is the single fleet seed every network derives from.
	Seed uint64
	// Population is the number of networks to generate and evaluate.
	Population int
	// Params parameterizes the generator.
	Params gen.Params
	// Workers bounds concurrent network evaluations. Default GOMAXPROCS.
	Workers int
	// Engine optionally supplies a shared evaluation engine; by default
	// the runner creates one sized to the population so every scenario
	// stays cacheable within the sweep.
	Engine *engine.Engine
	// FailureSweep optionally adds a per-network robustness sweep: each
	// link is failed in turn with this window and all single-link
	// scenarios are solved as one engine batch.
	FailureSweep *FailureSweep
}

// Runner evaluates fleets. Create one with New; it is safe for repeated
// and concurrent Run calls.
type Runner struct {
	cfg     Config
	eng     *engine.Engine
	metrics *metrics
}

// New validates the configuration and returns a runner. Fleet metrics
// are registered on the engine's obs registry, so one Prometheus
// exposition covers both the sweep and the solves it triggers.
func New(cfg Config) (*Runner, error) {
	if cfg.Population < 1 {
		return nil, fmt.Errorf("fleet: population %d must be positive", cfg.Population)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.FailureSweep != nil {
		if err := cfg.FailureSweep.validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(engine.Config{CacheSize: 2 * cfg.Population})
	}
	return &Runner{cfg: cfg, eng: eng, metrics: newMetrics(eng.Registry())}, nil
}

// Engine returns the evaluation engine backing the runner.
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Run generates and evaluates the whole population and returns the
// aggregated report. Per-network generation or evaluation errors are
// recorded in the report and excluded from the aggregate; Run itself only
// fails on cancellation.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	r.metrics.sweeps.Inc()
	nets := make([]NetworkResult, r.cfg.Population)
	paths := make([][]float64, r.cfg.Population)
	reaches := make([][]float64, r.cfg.Population)

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				nets[i], paths[i], reaches[i] = r.evalOne(ctx, i)
			}
		}()
	}
	for i := 0; i < r.cfg.Population; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{
		Seed:       r.cfg.Seed,
		Population: r.cfg.Population,
		Params:     r.cfg.Params,
		Networks:   nets,
	}
	rep.Aggregate = aggregate(nets, paths, reaches)
	return rep, nil
}

// evalOne generates and evaluates network i, returning its scalar
// measures plus the pooled per-path samples (E[tau] and reachability)
// the fleet-wide bands are computed from.
func (r *Runner) evalOne(ctx context.Context, i int) (NetworkResult, []float64, []float64) {
	r.metrics.networks.Inc()
	out := NetworkResult{Index: i}
	g, err := gen.Generate(r.cfg.Seed, i, r.cfg.Params)
	if err != nil {
		r.metrics.failures.Inc()
		out.Error = "generate: " + err.Error()
		return out, nil, nil
	}
	out.Nodes = g.Net.NumNodes()
	out.Links = g.Net.NumLinks()
	out.Fup = g.Plan.Fup()
	res, err := r.eng.Evaluate(ctx, g.Spec)
	if err != nil {
		r.metrics.failures.Inc()
		out.Error = "evaluate: " + err.Error()
		return out, nil, nil
	}
	out.OverallMeanDelayMS = res.OverallMeanDelayMS
	out.Utilization = res.Utilization
	delays := make([]float64, 0, len(res.Paths))
	reaches := make([]float64, 0, len(res.Paths))
	sum, minReach := 0.0, 1.0
	for _, p := range res.Paths {
		delays = append(delays, p.ExpectedDelayMS)
		reaches = append(reaches, p.Reachability)
		sum += p.ExpectedDelayMS
		if p.Reachability < minReach {
			minReach = p.Reachability
		}
	}
	if len(res.Paths) > 0 {
		out.MeanPathDelayMS = sum / float64(len(res.Paths))
	}
	out.MinReachability = minReach
	r.metrics.overallDelayMS.Observe(res.OverallMeanDelayMS)
	r.metrics.utilization.Observe(res.Utilization)
	if r.cfg.FailureSweep != nil {
		if err := r.sweepFailures(ctx, g.Spec, &out); err != nil {
			r.metrics.failures.Inc()
			out.Error = "failsweep: " + err.Error()
			return out, nil, nil
		}
	}
	return out, delays, reaches
}

// aggregate reduces the population to its cross-fleet percentile bands.
// Per-network measures (E[Gamma], utilization) are banded across
// networks; per-path measures (E[tau], reachability) are pooled across
// every path of every successful network.
func aggregate(nets []NetworkResult, paths, reaches [][]float64) Aggregate {
	agg := Aggregate{}
	var gammas, utils, pooledDelay, pooledReach, worstFail []float64
	for i, n := range nets {
		if n.Error != "" {
			agg.Failed++
			continue
		}
		agg.Evaluated++
		gammas = append(gammas, n.OverallMeanDelayMS)
		utils = append(utils, n.Utilization)
		pooledDelay = append(pooledDelay, paths[i]...)
		pooledReach = append(pooledReach, reaches[i]...)
		if n.FailureScenarios > 0 {
			worstFail = append(worstFail, n.WorstFailureDelayMS)
		}
	}
	agg.Paths = len(pooledDelay)
	agg.PathDelayMS = band(pooledDelay)
	agg.Reachability = band(pooledReach)
	agg.OverallDelayMS = band(gammas)
	agg.Utilization = band(utils)
	if len(worstFail) > 0 {
		b := band(worstFail)
		agg.WorstFailureDelayMS = &b
	}
	return agg
}

// band computes the p10/p50/p90 band of a sample; an empty sample yields
// the zero band.
func band(sample []float64) Band {
	if len(sample) == 0 {
		return Band{}
	}
	// Percentile only fails on an empty sample or a level outside [0,1],
	// both excluded here.
	p10, _ := stats.Percentile(sample, 0.10)
	p50, _ := stats.Percentile(sample, 0.50)
	p90, _ := stats.Percentile(sample, 0.90)
	return Band{P10: p10, P50: p50, P90: p90}
}
