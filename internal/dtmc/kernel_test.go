package dtmc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wirelesshart/internal/linalg"
)

// edge is one transition of a test chain. An absorbing state carries an
// explicit self-loop edge of probability one.
type edge struct {
	from, to int
	p        float64
}

// kernelOf compiles an n-state chain given as an edge list through
// NewKernel, keeping each row's edges in list order.
func kernelOf(t testing.TB, n int, edges ...edge) *Kernel {
	t.Helper()
	rowPtr := make([]int, n+1)
	for _, e := range edges {
		rowPtr[e.from+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int, len(edges))
	val := make([]float64, len(edges))
	next := append([]int(nil), rowPtr[:n]...)
	for _, e := range edges {
		col[next[e.from]], val[next[e.from]] = e.to, e.p
		next[e.from]++
	}
	k, err := NewKernel(rowPtr, col, val, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// legacyStepAt is the pre-kernel reference implementation of the transient
// step — a walk over the chain's edge list. The equivalence tests pin the
// compiled kernel against it.
func legacyStepAt(n int, edges []edge, p linalg.Vector) linalg.Vector {
	out := linalg.NewVector(n)
	for _, e := range edges {
		out[e.to] += p[e.from] * e.p
	}
	return out
}

// pointMass returns the distribution over n states concentrated on id.
func pointMass(n, id int) linalg.Vector {
	p := linalg.NewVector(n)
	p[id] = 1
	return p
}

func sum(v linalg.Vector) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// maxAbsDiff returns the largest entry-wise difference of two
// equal-length vectors.
func maxAbsDiff(a, b linalg.Vector) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// randomChain draws a seeded random chain of n states: about one state
// in five past state 0 absorbs, and every other state's row sums to one.
func randomChain(rng *rand.Rand) (n int, edges []edge) {
	n = 3 + rng.Intn(10)
	absorbing := make([]bool, n)
	for i := 1; i < n; i++ {
		absorbing[i] = rng.Float64() < 0.2
	}
	for i := 0; i < n; i++ {
		if absorbing[i] {
			edges = append(edges, edge{i, i, 1})
			continue
		}
		weights := make([]float64, 1+rng.Intn(4))
		var total float64
		for j := range weights {
			weights[j] = 0.05 + rng.Float64()
			total += weights[j]
		}
		for _, w := range weights {
			edges = append(edges, edge{i, rng.Intn(n), w / total})
		}
	}
	return n, edges
}

func randomDistribution(rng *rand.Rand, n int) linalg.Vector {
	p := linalg.NewVector(n)
	var total float64
	for i := range p {
		p[i] = rng.Float64()
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// TestKernelMatchesLegacyStep is the randomized equivalence test: over
// seeded chains, Kernel.StepInto must match the legacy per-edge walk to
// 1e-12 at every step of the horizon, and both must conserve probability
// mass throughout.
func TestKernelMatchesLegacyStep(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	const horizon = 40
	for trial := 0; trial < 40; trial++ {
		n, edges := randomChain(rng)
		k := kernelOf(t, n, edges...)
		p0 := randomDistribution(rng, n)
		legacy := p0.Clone()
		cur, next := p0.Clone(), linalg.NewVector(n)
		for s := 0; s < horizon; s++ {
			legacy = legacyStepAt(n, edges, legacy)
			if err := k.StepInto(next, cur); err != nil {
				t.Fatal(err)
			}
			cur, next = next, cur
			if d := maxAbsDiff(cur, legacy); d > 1e-12 {
				t.Fatalf("trial %d step %d: kernel vs legacy diverge by %v", trial, s, d)
			}
			if m := math.Abs(sum(cur) - 1); m > 1e-12 {
				t.Fatalf("trial %d step %d: kernel mass off by %v", trial, s, m)
			}
			if m := math.Abs(sum(legacy) - 1); m > 1e-12 {
				t.Fatalf("trial %d step %d: legacy mass off by %v", trial, s, m)
			}
		}
		// The full-horizon driver must land on the same distribution.
		final, err := k.Transient(p0, horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(final, legacy); d > 1e-12 {
			t.Fatalf("trial %d: Transient vs legacy diverge by %v", trial, d)
		}
	}
}

// TestNewKernel checks the direct CSR constructor: a layout written by hand
// steps exactly like the edge walk of the chain it describes, and layout
// errors and non-stochastic rows are rejected with the offending state's
// index.
func TestNewKernel(t *testing.T) {
	// State 0 moves to 1 w.p. 0.7 and stays w.p. 0.3; state 1 absorbs.
	k, err := NewKernel([]int{0, 2, 3}, []int{1, 0, 1}, []float64{0.7, 0.3, 1}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	edges := []edge{{0, 1, 0.7}, {0, 0, 0.3}, {1, 1, 1}}
	want := linalg.Vector{1, 0}
	for s := 0; s < 5; s++ {
		want = legacyStepAt(2, edges, want)
	}
	got, err := k.Transient(linalg.Vector{1, 0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(got, want) != 0 {
		t.Errorf("NewKernel transient %v, edge walk %v", got, want)
	}

	for name, tc := range map[string]struct {
		rowPtr, col []int
		val         []float64
		want        string
	}{
		"empty row pointer":  {nil, nil, nil, "negative"},
		"column range":       {[]int{0, 1, 2}, []int{2, 1}, []float64{1, 1}, "out of"},
		"row pointer span":   {[]int{0, 1, 1}, []int{1, 1}, []float64{1, 1}, "span"},
		"row sum":            {[]int{0, 2, 3}, []int{1, 0, 1}, []float64{0.7, 0.7, 1}, "state 0 outgoing probabilities sum"},
		"value out of range": {[]int{0, 1, 2}, []int{1, 1}, []float64{1, 1.5}, "state 1 value"},
		"negative value":     {[]int{0, 2, 3}, []int{1, 0, 1}, []float64{1.1, -0.1, 1}, "state 0 value"},
		"NaN value":          {[]int{0, 2, 3}, []int{1, 0, 1}, []float64{math.NaN(), 1, 1}, "state 0 value"},
		"no self-loop":       {[]int{0, 1, 1}, []int{1}, []float64{1}, "state 1 outgoing probabilities sum"},
	} {
		if _, err := NewKernel(tc.rowPtr, tc.col, tc.val, 1e-9); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestKernelHomogeneousStepAllocatesNothing(t *testing.T) {
	k := kernelOf(t, 2, edge{0, 0, 0.9}, edge{0, 1, 0.1}, edge{1, 0, 0.8}, edge{1, 1, 0.2})
	src := linalg.Vector{1, 0}
	dst := linalg.NewVector(2)
	allocs := testing.AllocsPerRun(200, func() {
		if err := k.StepInto(dst, src); err != nil {
			t.Fatal(err)
		}
		src, dst = dst, src
	})
	if allocs != 0 {
		t.Errorf("StepInto allocates %v objects per step, want 0", allocs)
	}
}

func TestKernelAccessors(t *testing.T) {
	k := kernelOf(t, 2, edge{0, 1, 1}, edge{1, 1, 1})
	if k.NumStates() != 2 {
		t.Errorf("NumStates() = %d, want 2", k.NumStates())
	}
	if k.NNZ() != 2 { // the edge plus the absorbing self-loop
		t.Errorf("NNZ() = %d, want 2", k.NNZ())
	}
}

func TestKernelStepErrors(t *testing.T) {
	k := kernelOf(t, 1, edge{0, 0, 1})
	if err := k.StepInto(linalg.NewVector(1), linalg.NewVector(2)); err == nil {
		t.Error("wrong src length should error")
	}
	if err := k.StepInto(linalg.NewVector(2), linalg.NewVector(1)); err == nil {
		t.Error("wrong dst length should error")
	}
	if _, err := k.Transient(linalg.NewVector(1), -1, nil); err == nil {
		t.Error("negative steps should error")
	}
	if _, err := k.Transient(linalg.NewVector(2), 1, nil); err == nil {
		t.Error("wrong p0 length should error")
	}
}

func TestTransientObservedPropagatesObserverError(t *testing.T) {
	want := fmt.Errorf("observer says no")
	_, err := kernelOf(t, 1, edge{0, 0, 1}).Transient(linalg.Vector{1}, 3, func(s int, p linalg.Vector) error {
		if s == 2 {
			return want
		}
		return nil
	})
	if err != want {
		t.Errorf("err = %v, want the observer's error", err)
	}
}

// ladderChain builds an n-state absorbing chain shaped like the path
// model's age ladder, for benchmarking.
func ladderChain(n int) []edge {
	var edges []edge
	for i := 0; i < n-1; i++ {
		next := i + 1
		skip := min(i+2, n-1)
		if next == skip {
			edges = append(edges, edge{i, next, 1})
			continue
		}
		edges = append(edges, edge{i, next, 0.75}, edge{i, skip, 0.25})
	}
	return append(edges, edge{n - 1, n - 1, 1})
}

// BenchmarkKernelStepHomogeneous measures one compiled step of a 512-state
// ladder: the hot loop, 0 allocs/op.
func BenchmarkKernelStepHomogeneous(b *testing.B) {
	const n = 512
	k := kernelOf(b, n, ladderChain(n)...)
	src := pointMass(n, 0)
	dst := linalg.NewVector(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.StepInto(dst, src); err != nil {
			b.Fatal(err)
		}
		src, dst = dst, src
	}
}

// BenchmarkLegacyStepHomogeneous is the pre-kernel baseline on the same
// chain, kept for comparison.
func BenchmarkLegacyStepHomogeneous(b *testing.B) {
	const n = 512
	edges := ladderChain(n)
	p := pointMass(n, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = legacyStepAt(n, edges, p)
	}
}

// TestStepIntoRejectsAliasing is the regression test for the aliasing
// contract: advancing a distribution into itself would scatter
// already-propagated mass again, so StepInto must refuse instead of
// silently corrupting the result.
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
