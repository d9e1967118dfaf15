// Package dtmc implements the discrete-time Markov chain engine underlying
// the WirelessHART path model: an immutable compressed-sparse-row kernel
// for transient analysis, value rebinding onto a frozen sparsity pattern
// and DOT export. Every chain is time-homogeneous:
// the path model encodes slot time in its age-layered states (paper
// Algorithm 1), so a chain is a fixed matrix.
package dtmc

import (
	"fmt"
	"math"

	"wirelesshart/internal/linalg"
)

// Kernel is a chain in compressed-sparse-row form for repeated transient
// steps. Edge probabilities (absorbing states included, as explicit
// self-loops) are frozen into the value array at construction, so a
// Kernel is an immutable matrix: stepping is read-only and one Kernel may
// be shared by any number of goroutines. A kernel carries no state names;
// its errors name states by index, and WriteDOT takes names from the
// caller.
type Kernel struct {
	n   int
	mat *linalg.CSR
}

// NewKernel wraps the CSR layout of an n-state chain, n = len(rowPtr)-1,
// as a kernel: the layout must pass
// linalg.NewCSR's checks and every row must be a probability distribution
// within tol, so absorbing states carry explicit self-loops. The slices
// are retained, not copied. Builders that know their chain's layout (the
// path model's Algorithm 1) emit it directly through this constructor.
func NewKernel(rowPtr, col []int, val []float64, tol float64) (*Kernel, error) {
	n := len(rowPtr) - 1
	mat, err := linalg.NewCSR(n, n, rowPtr, col, val)
	if err != nil {
		return nil, fmt.Errorf("dtmc: %w", err)
	}
	k := &Kernel{n: n, mat: mat}
	if err := k.checkRows(tol); err != nil {
		return nil, fmt.Errorf("dtmc: kernel: %w", err)
	}
	return k, nil
}

// NumStates returns the kernel's state count.
func (k *Kernel) NumStates() int { return k.n }

// Row returns views of state id's compiled outgoing edges: the column
// (target state) indices and the values. Both slices must be
// treated as read-only.
func (k *Kernel) Row(id int) (cols []int, vals []float64) { return k.mat.Row(id) }

// ValuesCopy returns a fresh copy of the kernel's compiled value array,
// one entry per edge in row order — the canonical seed for a Rebind
// value pass.
func (k *Kernel) ValuesCopy() []float64 {
	src := k.mat.Values()
	out := make([]float64, len(src))
	copy(out, src)
	return out
}

// Rebind returns a kernel that shares k's frozen CSR sparsity pattern (row
// pointers and column indices) with values as its own value array — a
// values-only recompile. values must hold one probability per compiled
// edge (NNZ entries, in row order) and is retained by the
// returned kernel; every row is checked to be a probability distribution
// within tol.
func (k *Kernel) Rebind(values []float64, tol float64) (*Kernel, error) {
	mat, err := k.mat.WithValues(values)
	if err != nil {
		return nil, err
	}
	nk := &Kernel{n: k.n, mat: mat}
	if err := nk.checkRows(tol); err != nil {
		return nil, fmt.Errorf("dtmc: rebind: %w", err)
	}
	return nk, nil
}

// checkRows reports the first row that is not a probability distribution
// within tol.
func (k *Kernel) checkRows(tol float64) error {
	for id := 0; id < k.n; id++ {
		var sum float64
		_, vals := k.mat.Row(id)
		for _, p := range vals {
			if math.IsNaN(p) || p < -tol || p > 1+tol {
				return fmt.Errorf("state %d value %v out of [0,1]", id, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("state %d outgoing probabilities sum to %v", id, sum)
		}
	}
	return nil
}

// NNZ returns the number of compiled edges (including absorbing
// self-loops).
func (k *Kernel) NNZ() int { return k.mat.NNZ() }

// StepInto advances the distribution one slot: dst = src P.
// dst and src must be distinct vectors of the chain's state count; dst is
// overwritten. Aliased dst/src would silently scatter already-propagated
// mass again, so aliasing is detected and rejected.
func (k *Kernel) StepInto(dst, src linalg.Vector) error {
	if len(src) != k.n {
		return fmt.Errorf("dtmc: distribution length %d, want %d", len(src), k.n)
	}
	if len(dst) != k.n {
		return fmt.Errorf("dtmc: step destination length %d, want %d", len(dst), k.n)
	}
	if k.n > 0 && &dst[0] == &src[0] {
		return fmt.Errorf("dtmc: step destination aliases the source distribution")
	}
	return k.mat.MulVecInto(dst, src)
}

// Transient is the transient driver: it runs p(s+1) = p(s) P for
// s = 0..steps-1 from p0 with two reused buffers and, when observe is
// non-nil, calls observe(s, p(s)) for every s = 0..steps (including the
// initial distribution). The vector passed to observe is only valid during
// the call and must not be modified or retained. The final distribution is
// returned; it is freshly allocated within the call and owned by the
// caller.
func (k *Kernel) Transient(p0 linalg.Vector, steps int, observe func(step int, p linalg.Vector) error) (linalg.Vector, error) {
	if steps < 0 {
		return nil, fmt.Errorf("dtmc: negative step count %d", steps)
	}
	if len(p0) != k.n {
		return nil, fmt.Errorf("dtmc: distribution length %d, want %d", len(p0), k.n)
	}
	cur := p0.Clone()
	next := linalg.NewVector(k.n)
	if observe != nil {
		if err := observe(0, cur); err != nil {
			return nil, err
		}
	}
	for s := 0; s < steps; s++ {
		if err := k.StepInto(next, cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
		if observe != nil {
			if err := observe(s+1, cur); err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}
