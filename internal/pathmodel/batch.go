package pathmodel

import (
	"fmt"

	"wirelesshart/internal/dtmc"
	"wirelesshart/internal/linalg"
	"wirelesshart/internal/link"
)

// BindBatch binds K scenarios' availability functions onto the structure's
// one frozen pattern, returning K models that all share the same Algorithm-1
// skeleton and CSR sparsity. Each scenario costs one value pass plus the
// per-row revalidation of Rebind; the chain construction and CSR compile are
// paid zero times. Errors name the offending scenario. The returned models
// are exactly what K individual Bind calls would produce and feed directly
// into SolveBatch.
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

// SolveBatch runs the transient analysis of K models in lock-step over
// their shared compiled pattern: one Kernel.TransientBatch pass
// advances all K distributions per slot, amortizing the pattern's memory
// traffic across the batch. Every model must share the same Structure (as
// produced by one BindBatch or repeated Bind calls on one Structure); the
// per-scenario results are bit-identical to calling Solve on each model.
// A batch of one runs Solve itself, which skips the packing the lock-step
// pass needs.
func SolveBatch(models []*Model) ([]*Result, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("pathmodel: empty solve batch")
	}
	if len(models) == 1 && models[0] != nil {
		res, err := models[0].Solve()
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	s := models[0].s
	kernels := make([]*dtmc.Kernel, len(models))
	p0 := make([]linalg.Vector, len(models))
	for j, m := range models {
		if m == nil {
			return nil, fmt.Errorf("pathmodel: solve batch scenario %d is nil", j)
		}
		if m.s != s {
			return nil, fmt.Errorf("pathmodel: solve batch scenario %d bound to a different structure", j)
		}
		kernels[j] = m.kernel
		p0[j] = m.initialDistribution()
	}
	horizon := s.is * s.fup
	attempts := make([]float64, len(models))
	final, err := s.base.TransientBatch(kernels, p0, horizon, func(t int, d dtmc.BatchDist) error {
		// Mass sitting in a transmitting state at time t attempts a
		// transmission during slot t+1; the final distribution makes no
		// further attempt.
		if t < horizon {
			for _, b := range s.binds {
				for j, mass := range d.Row(b.state) {
					attempts[j] += mass
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(models))
	for j := range models {
		p := final[j]
		res := &Result{
			CycleProbs: make([]float64, len(s.goals)),
			GoalAges:   append([]int(nil), s.ages...),
			Fup:        s.fup,
			Is:         s.is,
			Hops:       len(s.slots),
		}
		for i, id := range s.goals {
			res.CycleProbs[i] = p[id]
		}
		res.DiscardProb = p[s.discard]
		res.ExpectedAttempts = attempts[j]

		var absorbed float64
		for _, q := range res.CycleProbs {
			absorbed += q
		}
		absorbed += res.DiscardProb
		if diff := absorbed - 1; diff > 1e-9 || diff < -1e-9 {
			return nil, fmt.Errorf("pathmodel: solve batch scenario %d: mass %v not fully absorbed at horizon", j, absorbed)
		}
		out[j] = res
	}
	return out, nil
}
