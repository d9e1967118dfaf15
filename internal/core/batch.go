package core

import (
	"fmt"

	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/topology"
)

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
// PathModels returns: MeasurePath for each, then AssemblePaths. Together
// with PathModels it splits Analyze around the transient solve so a batch
// driver can own that step.
func (a *Analyzer) AssembleAnalysis(results []*pathmodel.Result) (*NetworkAnalysis, error) {
	if len(results) != len(a.sources) {
		return nil, fmt.Errorf("core: %d results for %d sources", len(results), len(a.sources))
	}
	paths := make([]*PathAnalysis, len(results))
	for i, src := range a.sources {
		if results[i] == nil {
			return nil, fmt.Errorf("core: nil result for source %d", src)
		}
		pa, err := a.MeasurePath(src, results[i])
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		paths[i] = pa
	}
	return a.AssemblePaths(paths)
}
