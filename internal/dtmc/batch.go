package dtmc

import (
	"fmt"

	"wirelesshart/internal/linalg"
)

// BatchDist is a read-only view of a batch's K distributions at one step.
// The block packs the K vectors scenario-fastest: one state's K scenario
// components are contiguous, which is what makes the batched traversal
// cache-friendly. The view is only valid during the observe call that
// received it and must not be retained.
type BatchDist struct {
	k   int
	buf []float64
}

// Scenarios returns K, the batch width.
func (d BatchDist) Scenarios() int { return d.k }

// At returns scenario j's probability mass in the given state.
func (d BatchDist) At(scenario, state int) float64 { return d.buf[state*d.k+scenario] }

// Row returns the K scenario components of one state, scenario-fastest.
// The slice is a view into the ping-pong block: read-only, valid only
// during the observe call.
func (d BatchDist) Row(state int) []float64 { return d.buf[state*d.k : state*d.k+d.k] }

// TransientBatch advances K scenarios' distributions through the same
// frozen sparsity pattern in lock-step: every step is one row-major pass
// over the pattern that advances all K ping-pong blocks at once, so the
// dominant cost — memory traffic over the pattern — is paid once per step
// instead of once per scenario. kernels[j] supplies scenario j's values;
// every kernel must share the receiver's compiled pattern by identity: the
// receiver itself or a kernel Rebind produced from it. Separately compiled
// kernels never share a pattern, even when their skeletons are equal.
// p0[j] is scenario j's initial distribution.
//
// When observe is non-nil, TransientBatch calls observe(s, dist) for every
// s = 0..steps (including the initial distributions). The BatchDist passed
// to observe is only valid during the call. Apart from the initial block,
// the packed value block, and the result vectors, the step loop allocates
// nothing. The returned vectors are freshly allocated and owned by the
// caller.
func (k *Kernel) TransientBatch(kernels []*Kernel, p0 []linalg.Vector, steps int, observe func(step int, d BatchDist) error) ([]linalg.Vector, error) {
	kk := len(kernels)
	if kk == 0 {
		return nil, fmt.Errorf("dtmc: empty kernel batch")
	}
	if len(p0) != kk {
		return nil, fmt.Errorf("dtmc: %d initial distributions for %d kernels", len(p0), kk)
	}
	if steps < 0 {
		return nil, fmt.Errorf("dtmc: negative step count %d", steps)
	}
	n := k.n
	for j, kr := range kernels {
		if kr == nil {
			return nil, fmt.Errorf("dtmc: batch scenario %d has nil kernel", j)
		}
		if !k.mat.SamePattern(kr.mat) {
			return nil, fmt.Errorf("dtmc: batch scenario %d does not share the compiled pattern", j)
		}
		if len(p0[j]) != n {
			return nil, fmt.Errorf("dtmc: batch scenario %d distribution length %d, want %d", j, len(p0[j]), n)
		}
	}

	cur := make([]float64, n*kk)
	next := make([]float64, n*kk)
	for j, p := range p0 {
		for i, v := range p {
			cur[i*kk+j] = v
		}
	}
	// Activity masks ping-pong alongside the blocks: in age-layered
	// absorbing chains almost every state is empty at any step, and the
	// masks let the pass skip an empty row in O(1) instead of scanning its
	// K scenario components.
	curActive := make([]bool, n)
	nextActive := make([]bool, n)
	for i := 0; i < n; i++ {
		for _, v := range cur[i*kk : i*kk+kk] {
			if v != 0 {
				curActive[i] = true
				break
			}
		}
	}

	// Pack the per-scenario value block once: position-major,
	// scenario-fastest.
	vals := make([]float64, k.mat.NNZ()*kk)
	for j, kr := range kernels {
		for p, v := range kr.mat.Values() {
			vals[p*kk+j] = v
		}
	}

	if observe != nil {
		if err := observe(0, BatchDist{k: kk, buf: cur}); err != nil {
			return nil, err
		}
	}
	for s := 0; s < steps; s++ {
		if err := k.mat.MulVecBatch(next, cur, kk, vals, curActive, nextActive); err != nil {
			return nil, err
		}
		cur, next = next, cur
		curActive, nextActive = nextActive, curActive
		if observe != nil {
			if err := observe(s+1, BatchDist{k: kk, buf: cur}); err != nil {
				return nil, err
			}
		}
	}

	out := make([]linalg.Vector, kk)
	for j := range out {
		out[j] = linalg.NewVector(n)
		for i := 0; i < n; i++ {
			out[j][i] = cur[i*kk+j]
		}
	}
	return out, nil
}
