package dtmc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wirelesshart/internal/linalg"
)

// TestStepIntoRejectsAliasing is the regression test for the aliasing
// contract: advancing a distribution into itself would scatter
// already-propagated mass again, so StepInto must refuse instead of
// silently corrupting the result. The batch drivers rely on this contract.
func TestStepIntoRejectsAliasing(t *testing.T) {
	k := kernelOf(t, 2, edge{0, 1, 0.4}, edge{0, 0, 0.6}, edge{1, 1, 1})
	p := linalg.Vector{1, 0}
	if err := k.StepInto(p, p); err == nil {
		t.Fatal("StepInto accepted an aliased dst/src pair")
	}
	// The rejected call must not have touched the distribution.
	if p[0] != 1 || p[1] != 0 {
		t.Fatalf("aliased StepInto mutated the distribution: %v", p)
	}
	dst := linalg.NewVector(2)
	if err := k.StepInto(dst, p); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0.6 || dst[1] != 0.4 {
		t.Fatalf("distinct-buffer step wrong: %v", dst)
	}
}

// TestTransientBatchMatchesScalar is the randomized batch-vs-scalar
// equivalence test: over seeded chains, K rebound scenario
// kernels advanced by one TransientBatch pass must match K independent
// Transient runs to 1e-12 at the horizon and at every observed step,
// K=1 included.
func TestTransientBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const horizon = 40
	for trial := 0; trial < 30; trial++ {
		n, edges := randomChain(rng)
		base := kernelOf(t, n, edges...)
		for _, k := range []int{1, 2, 7} {
			kernels := make([]*Kernel, k)
			p0 := make([]linalg.Vector, k)
			for j := range kernels {
				rk, err := base.Rebind(rerollValues(rng, base), 1e-9)
				if err != nil {
					t.Fatal(err)
				}
				kernels[j] = rk
				p0[j] = randomDistribution(rng, n)
			}
			// Scalar reference trajectories, step by step.
			want := make([][]linalg.Vector, k)
			for j := range kernels {
				want[j] = make([]linalg.Vector, horizon+1)
				_, err := kernels[j].Transient(p0[j], horizon, func(s int, p linalg.Vector) error {
					want[j][s] = p.Clone()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			finals, err := base.TransientBatch(kernels, p0, horizon, func(s int, d BatchDist) error {
				if d.Scenarios() != k {
					return fmt.Errorf("batch width %d, want %d", d.Scenarios(), k)
				}
				for j := 0; j < k; j++ {
					for i := 0; i < n; i++ {
						diff := d.At(j, i) - want[j][s][i]
						if diff > 1e-12 || diff < -1e-12 {
							return fmt.Errorf("step %d scenario %d state %d: batch %v vs scalar %v",
								s, j, i, d.At(j, i), want[j][s][i])
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			for j := range finals {
				if d := maxAbsDiff(finals[j], want[j][horizon]); d > 1e-12 {
					t.Fatalf("trial %d k=%d scenario %d: final diverges by %v", trial, k, j, d)
				}
			}
		}
	}
}

func TestTransientBatchInputErrors(t *testing.T) {
	edges := []edge{{0, 1, 1}, {1, 1, 1}}
	k := kernelOf(t, 2, edges...)
	good := []linalg.Vector{{1, 0}}
	if _, err := k.TransientBatch(nil, nil, 1, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := k.TransientBatch([]*Kernel{k}, nil, 1, nil); err == nil {
		t.Error("missing initial distributions accepted")
	}
	if _, err := k.TransientBatch([]*Kernel{k}, good, -1, nil); err == nil {
		t.Error("negative steps accepted")
	}
	if _, err := k.TransientBatch([]*Kernel{nil}, good, 1, nil); err == nil {
		t.Error("nil scenario kernel accepted")
	}
	if _, err := k.TransientBatch([]*Kernel{k}, []linalg.Vector{{1}}, 1, nil); err == nil {
		t.Error("short distribution accepted")
	}
	other := kernelOf(t, 3, edge{0, 1, 1}, edge{1, 2, 1}, edge{2, 2, 1})
	if _, err := k.TransientBatch([]*Kernel{other}, good, 1, nil); err == nil {
		t.Error("pattern mismatch accepted")
	}
	// A second compile of the same chain has an equal but not a shared
	// pattern, so it is rejected too.
	_, err := k.TransientBatch([]*Kernel{kernelOf(t, 2, edges...)}, good, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "does not share the compiled pattern") {
		t.Errorf("separately compiled twin: err = %v, want a shared-pattern error", err)
	}
}

// TestTransientBatchStepAllocatesNothing pins the zero-allocs-per-step
// property of the batch inner loop: growing the horizon must not grow the
// allocation count, so everything past the fixed setup (blocks, packed
// values, result vectors) is allocation-free.
func TestTransientBatchStepAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	n, edges := randomChain(rng)
	base := kernelOf(t, n, edges...)
	const k = 8
	kernels := make([]*Kernel, k)
	p0 := make([]linalg.Vector, k)
	for j := range kernels {
		rk, err := base.Rebind(rerollValues(rng, base), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		kernels[j] = rk
		p0[j] = randomDistribution(rng, n)
	}
	allocsAt := func(steps int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := base.TransientBatch(kernels, p0, steps, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocsAt(1), allocsAt(200); long > short {
		t.Errorf("batch step loop allocates: %v allocs at 1 step vs %v at 200", short, long)
	}
}

// BenchmarkTransientBatch measures the batched transient against the
// scalar loop it replaces, for K in {1, 16, 128} scenarios over one
// compiled pattern. allocs/op stays flat in the horizon because the step
// loop allocates nothing.
func BenchmarkTransientBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n = 120
	var edges []edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, edge{i, i + 1, 0.6}, edge{i, i, 0.4})
	}
	base := kernelOf(b, n, append(edges, edge{n - 1, n - 1, 1})...)
	const horizon = 80
	for _, k := range []int{1, 16, 128} {
		kernels := make([]*Kernel, k)
		p0 := make([]linalg.Vector, k)
		for j := range kernels {
			vals := base.ValuesCopy()
			for i := 0; i < n-1; i++ {
				p := 0.4 + 0.5*rng.Float64()
				vals[2*i], vals[2*i+1] = p, 1-p
			}
			rk, err := base.Rebind(vals, 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			kernels[j] = rk
			p0[j] = linalg.NewVector(n)
			p0[j][0] = 1
		}
		b.Run(fmt.Sprintf("batch/K%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := base.TransientBatch(kernels, p0, horizon, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scalarloop/K%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range kernels {
					if _, err := kernels[j].Transient(p0[j], horizon, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
