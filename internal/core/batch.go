package core

import (
	"fmt"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/topology"
)

// InjectionScenario is one failure-injection assignment: per-link
// availability overrides layered on top of the analyzer's configuration.
// Links absent from the map resolve through the analyzer's normal order
// (configured override first, then the link model's steady state).
type InjectionScenario map[topology.LinkID]link.Availability

// AnalyzeInjectionGrid analyzes K injection scenarios against one analyzer
// in a single batched sweep: every source's K scenario bindings share that
// source's cached path structure and are advanced through the frozen CSR
// pattern in lock-step (one pathmodel.SolveBatch per source), so the grid
// pays the pattern's memory traffic once per source instead of once per
// scenario. The returned analyses are indexed like scenarios and are
// numerically identical to K independent Analyze calls under the
// corresponding WithLinkAvailability overrides.
func (a *Analyzer) AnalyzeInjectionGrid(scenarios []InjectionScenario) ([]*NetworkAnalysis, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: empty injection grid")
	}
	resolvers := make([]func(topology.LinkID) link.Availability, len(scenarios))
	for j, sc := range scenarios {
		sc := sc
		resolvers[j] = func(id topology.LinkID) link.Availability {
			if av, ok := sc[id]; ok {
				return av
			}
			return a.availability(id)
		}
	}
	return a.analyzeBatchWith(resolvers)
}

// analyzeBatchWith runs K full network analyses, one per availability
// resolver, batching the K transient solves of every source onto its shared
// structure. A nil resolver analyzes the analyzer's own configuration.
func (a *Analyzer) analyzeBatchWith(resolvers []func(topology.LinkID) link.Availability) ([]*NetworkAnalysis, error) {
	out := make([]*NetworkAnalysis, len(resolvers))
	for j := range out {
		out[j] = &NetworkAnalysis{}
	}
	for _, src := range a.sources {
		p, ok := a.routes[src]
		if !ok {
			return nil, fmt.Errorf("core: no route for source %d", src)
		}
		slots := a.sched.SlotsForSource(src)
		if len(slots) != p.Hops() {
			return nil, fmt.Errorf("core: source %d has %d slots for %d hops", src, len(slots), p.Hops())
		}
		st, err := a.structureFor(slots, a.ttl)
		if err != nil {
			return nil, err
		}
		scenarios := make([][]link.Availability, len(resolvers))
		for j, availOf := range resolvers {
			if availOf == nil {
				availOf = a.availability
			}
			avails := make([]link.Availability, p.Hops())
			for h, lid := range p.Links() {
				avails[h] = availOf(lid)
			}
			scenarios[j] = avails
		}
		endBind := a.span("bind", "source", itoa(int(src)), "batch", itoa(len(scenarios)))
		models, err := st.BindBatch(scenarios)
		endBind()
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		endSolve := a.span("solve", "source", itoa(int(src)), "batch", itoa(len(models)))
		results, err := pathmodel.SolveBatch(models)
		endSolve()
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		for j, res := range results {
			pa, err := a.pathAnalysisFrom(src, res)
			if err != nil {
				return nil, fmt.Errorf("core: path from %d: %w", src, err)
			}
			out[j].Paths = append(out[j].Paths, pa)
			out[j].UtilizationExact += pa.UtilizationExact
			out[j].UtilizationClosed += pa.UtilizationClosed
		}
	}
	for _, na := range out {
		if err := a.finishNetworkAnalysis(na); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SourceModel pairs one reporting source with its built (unsolved) path
// model — the unit a batch driver groups by shared structure before
// solving many scenarios in one pass.
type SourceModel struct {
	Source topology.NodeID
	Model  *pathmodel.Model
}

// PathModels builds every reporting source's path model under the
// analyzer's configuration without solving any of them, in source-id order.
// Builds flow through the configured structure cache exactly as in
// Analyze; the caller owns the solve (typically a cross-scenario
// pathmodel.SolveBatch) and feeds the results back through
// AssembleAnalysis.
func (a *Analyzer) PathModels() ([]SourceModel, error) {
	out := make([]SourceModel, 0, len(a.sources))
	for _, src := range a.sources {
		m, err := a.buildPathModelWith(src, nil)
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		out = append(out, SourceModel{Source: src, Model: m})
	}
	return out, nil
}

// AssembleAnalysis derives the full network analysis from externally solved
// per-path results, one per reporting source in the same source-id order
// PathModels returns. Together with PathModels it splits Analyze around the
// transient solve so a batch driver can own that step.
func (a *Analyzer) AssembleAnalysis(results []*pathmodel.Result) (*NetworkAnalysis, error) {
	if len(results) != len(a.sources) {
		return nil, fmt.Errorf("core: %d results for %d sources", len(results), len(a.sources))
	}
	out := &NetworkAnalysis{}
	for i, src := range a.sources {
		if results[i] == nil {
			return nil, fmt.Errorf("core: nil result for source %d", src)
		}
		pa, err := a.pathAnalysisFrom(src, results[i])
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		out.Paths = append(out.Paths, pa)
		out.UtilizationExact += pa.UtilizationExact
		out.UtilizationClosed += pa.UtilizationClosed
	}
	if err := a.finishNetworkAnalysis(out); err != nil {
		return nil, err
	}
	return out, nil
}
