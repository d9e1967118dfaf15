package pathmodel

import "fmt"

// SolveBatch solves K models bound against one Structure by repeated Bind
// calls, one Solve recursion each, and returns their results in order. A
// solve holds two n-length layers and no shared state, so there is nothing
// for a shared pass to amortize, and every production caller solves each
// model on its own; SolveBatch stays only because the benchmark ladder in
// bench/ compiles against it. Any nil model, model of another structure or
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
