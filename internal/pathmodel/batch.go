package pathmodel

import (
	"fmt"

	"wirelesshart/internal/link"
)

// BindBatch binds K scenarios' availability functions against the
// structure, returning K models that all share its geometry. Each scenario
// costs one pass over its transmission attempts. Errors name the offending
// scenario. The returned models are exactly what K individual Bind calls
// would produce and feed directly into SolveBatch.
func (s *Structure) BindBatch(scenarios [][]link.Availability) ([]*Model, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("pathmodel: empty bind batch")
	}
	out := make([]*Model, len(scenarios))
	for j, avails := range scenarios {
		m, err := s.Bind(avails)
		if err != nil {
			return nil, fmt.Errorf("pathmodel: bind batch scenario %d: %w", j, err)
		}
		out[j] = m
	}
	return out, nil
}

// SolveBatch solves K models bound against one Structure (as produced by
// one BindBatch or repeated Bind calls on one Structure), one Solve
// recursion each, and returns their results in order. A solve holds two
// n-length layers and no shared state, so there is nothing left for a
// shared pass to amortize. Any nil model, model of another structure or
// failed solve fails the whole batch.
func SolveBatch(models []*Model) ([]*Result, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("pathmodel: empty solve batch")
	}
	out := make([]*Result, len(models))
	for j, m := range models {
		if m == nil {
			return nil, fmt.Errorf("pathmodel: solve batch scenario %d is nil", j)
		}
		if m.s != models[0].s {
			return nil, fmt.Errorf("pathmodel: solve batch scenario %d bound to a different structure", j)
		}
		res, err := m.Solve()
		if err != nil {
			return nil, fmt.Errorf("pathmodel: solve batch scenario %d: %w", j, err)
		}
		out[j] = res
	}
	return out, nil
}
