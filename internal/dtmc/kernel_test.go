package dtmc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wirelesshart/internal/linalg"
)

// legacyStepAt is the pre-kernel reference implementation of the transient
// step — the slice-of-slices walk over the chain's edges. The equivalence
// tests pin the compiled kernel against it.
func legacyStepAt(c *Chain, p linalg.Vector) (linalg.Vector, error) {
	if len(p) != c.NumStates() {
		return nil, fmt.Errorf("legacy: distribution length %d, want %d", len(p), c.NumStates())
	}
	out := linalg.NewVector(c.NumStates())
	for id, mass := range p {
		if mass == 0 {
			continue
		}
		if c.IsAbsorbing(id) {
			out[id] += mass
			continue
		}
		for _, tr := range c.out[id] {
			out[tr.To] += mass * tr.Prob
		}
	}
	return out, nil
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

// randomChain builds a seeded random chain whose non-absorbing rows each
// sum to one.
func randomChain(t *testing.T, rng *rand.Rand) *Chain {
	t.Helper()
	c := New()
	n := 3 + rng.Intn(10)
	for i := 0; i < n; i++ {
		c.MustAddState(fmt.Sprintf("s%d", i))
	}
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.2 {
			if err := c.MarkAbsorbing(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		if c.IsAbsorbing(i) {
			continue
		}
		weights := make([]float64, 1+rng.Intn(4))
		var total float64
		for j := range weights {
			weights[j] = 0.05 + rng.Float64()
			total += weights[j]
		}
		for _, w := range weights {
			if err := c.AddTransition(i, rng.Intn(n), w/total); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	return c
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
		c := randomChain(t, rng)
		k := c.Compile()
		n := c.NumStates()
		p0 := randomDistribution(rng, n)
		legacy := p0.Clone()
		cur, next := p0.Clone(), linalg.NewVector(n)
		for s := 0; s < horizon; s++ {
			var err error
			if legacy, err = legacyStepAt(c, legacy); err != nil {
				t.Fatal(err)
			}
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

// rerollValues draws a fresh set of row-stochastic values onto k's frozen
// sparsity pattern: every row's edges get new random weights summing to
// one (single-edge rows — absorbing self-loops included — stay at 1).
func rerollValues(rng *rand.Rand, k *Kernel) []float64 {
	vals := k.ValuesCopy()
	for i := 0; i < k.NumStates(); i++ {
		lo, hi := k.RowSpan(i)
		if hi-lo <= 1 {
			continue
		}
		var sum float64
		for j := lo; j < hi; j++ {
			vals[j] = 0.05 + rng.Float64()
			sum += vals[j]
		}
		for j := lo; j < hi; j++ {
			vals[j] /= sum
		}
	}
	return vals
}

// TestKernelRebindMatchesFreshCompile is the randomized rebind equivalence
// test: over seeded chains, rebinding new values onto a
// compiled kernel's frozen CSR pattern must match a chain rebuilt from
// scratch with those probabilities to 1e-12 over the whole horizon, and
// must leave the original kernel untouched.
func TestKernelRebindMatchesFreshCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	const horizon = 40
	for trial := 0; trial < 40; trial++ {
		c := randomChain(t, rng)
		k := c.Compile()
		n := c.NumStates()
		p0 := randomDistribution(rng, n)

		before, err := k.Transient(p0, horizon, nil)
		if err != nil {
			t.Fatal(err)
		}

		newVals := rerollValues(rng, k)
		rk, err := k.Rebind(newVals, 1e-9)
		if err != nil {
			t.Fatalf("trial %d: Rebind: %v", trial, err)
		}
		if rk.NumStates() != k.NumStates() || rk.NNZ() != k.NNZ() {
			t.Fatalf("trial %d: rebind changed shape: %d states/%d edges, want %d/%d",
				trial, rk.NumStates(), rk.NNZ(), k.NumStates(), k.NNZ())
		}

		// Full rebuild: a fresh chain with the same edges and the new
		// probabilities, built through the normal Compile path.
		fresh := New()
		for i := 0; i < n; i++ {
			fresh.MustAddState(fmt.Sprintf("s%d", i))
		}
		for i := 0; i < n; i++ {
			cols, _ := k.Row(i)
			lo, _ := k.RowSpan(i)
			for j, to := range cols {
				if err := fresh.AddTransition(i, to, newVals[lo+j]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fresh.Validate(1e-9); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Compile().Transient(p0, horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rk.Transient(p0, horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d: rebind vs fresh compile diverge by %v", trial, d)
		}

		// The source kernel still computes with its original values.
		after, err := k.Transient(p0, horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(after, before); d != 0 {
			t.Fatalf("trial %d: rebind mutated the source kernel (diff %v)", trial, d)
		}
	}
}

func TestKernelRebindRejectsBadValues(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	g := c.MustAddState("g")
	if err := c.AddTransition(a, g, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransition(a, a, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(g); err != nil {
		t.Fatal(err)
	}
	k := c.Compile()
	good := k.ValuesCopy()
	if _, err := k.Rebind(good[:len(good)-1], 1e-9); err == nil {
		t.Error("wrong value count should error")
	}
	for name, mangle := range map[string]func([]float64){
		"NaN":       func(v []float64) { v[0] = math.NaN() },
		"negative":  func(v []float64) { v[0] = -0.1; v[1] = 1.1 },
		"above one": func(v []float64) { v[0] = 1.5; v[1] = -0.5 },
		"row sum":   func(v []float64) { v[0] = 0.7; v[1] = 0.7 },
	} {
		vals := append([]float64(nil), good...)
		mangle(vals)
		if _, err := k.Rebind(vals, 1e-9); err == nil {
			t.Errorf("%s values should error", name)
		}
	}
}

// TestNewKernel checks the direct CSR constructor: a layout written by hand
// steps exactly like the compiled chain it describes, and layout errors and
// non-stochastic rows are rejected with the offending state's index.
func TestNewKernel(t *testing.T) {
	// State 0 moves to 1 w.p. 0.7 and stays w.p. 0.3; state 1 absorbs.
	k, err := NewKernel([]int{0, 2, 3}, []int{1, 0, 1}, []float64{0.7, 0.3, 1}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	a := c.MustAddState("a")
	g := c.MustAddState("g")
	if err := c.AddTransition(a, g, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransition(a, a, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(g); err != nil {
		t.Fatal(err)
	}
	want, err := c.Compile().Transient(linalg.Vector{1, 0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Transient(linalg.Vector{1, 0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(got, want) != 0 {
		t.Errorf("NewKernel transient %v, compiled chain %v", got, want)
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
		"no self-loop":       {[]int{0, 1, 1}, []int{1}, []float64{1}, "state 1 outgoing probabilities sum"},
	} {
		if _, err := NewKernel(tc.rowPtr, tc.col, tc.val, 1e-9); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestKernelHomogeneousStepAllocatesNothing(t *testing.T) {
	c := New()
	up := c.MustAddState("UP")
	down := c.MustAddState("DOWN")
	for _, e := range []error{
		c.AddTransition(up, up, 0.9),
		c.AddTransition(up, down, 0.1),
		c.AddTransition(down, up, 0.8),
		c.AddTransition(down, down, 0.2),
	} {
		if e != nil {
			t.Fatal(e)
		}
	}
	k := c.Compile()
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

// TestCompileReflectsMutation checks that Compile lowers the chain as it
// stands: an edge added after one compile appears in the next.
func TestCompileReflectsMutation(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	b := c.MustAddState("b")
	if err := c.AddTransition(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if k1 := c.Compile(); k1.NNZ() != 1 {
		t.Errorf("compiled kernel has %d edges, want 1", k1.NNZ())
	}
	if err := c.AddTransition(b, a, 1); err != nil {
		t.Fatal(err)
	}
	if k2 := c.Compile(); k2.NNZ() != 2 {
		t.Errorf("recompiled kernel has %d edges, want 2", k2.NNZ())
	}
}

func TestKernelAccessors(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	g := c.MustAddState("g")
	if err := c.AddTransition(a, g, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(g); err != nil {
		t.Fatal(err)
	}
	k := c.Compile()
	if k.NumStates() != 2 {
		t.Errorf("NumStates() = %d, want 2", k.NumStates())
	}
	if k.NNZ() != 2 { // the edge plus the absorbing self-loop
		t.Errorf("NNZ() = %d, want 2", k.NNZ())
	}
}

func TestKernelStepErrors(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	if err := c.AddTransition(a, a, 1); err != nil {
		t.Fatal(err)
	}
	k := c.Compile()
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
	c := New()
	a := c.MustAddState("a")
	if err := c.AddTransition(a, a, 1); err != nil {
		t.Fatal(err)
	}
	want := fmt.Errorf("observer says no")
	_, err := c.Compile().Transient(linalg.Vector{1}, 3, func(s int, p linalg.Vector) error {
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
func ladderChain(b *testing.B, n int) (*Chain, int) {
	b.Helper()
	c := New()
	for i := 0; i < n; i++ {
		c.MustAddState(fmt.Sprintf("s%d", i))
	}
	if err := c.MarkAbsorbing(n - 1); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		next := i + 1
		skip := i + 2
		if skip >= n {
			skip = n - 1
		}
		if next == skip {
			if err := c.AddTransition(i, next, 1); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err := c.AddTransition(i, next, 0.75); err != nil {
			b.Fatal(err)
		}
		if err := c.AddTransition(i, skip, 0.25); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Validate(1e-12); err != nil {
		b.Fatal(err)
	}
	return c, 0
}

// BenchmarkKernelStepHomogeneous measures one compiled step of a 512-state
// ladder: the hot loop, 0 allocs/op.
func BenchmarkKernelStepHomogeneous(b *testing.B) {
	c, start := ladderChain(b, 512)
	k := c.Compile()
	src := pointMass(c.NumStates(), start)
	dst := linalg.NewVector(c.NumStates())
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
	c, start := ladderChain(b, 512)
	p := pointMass(c.NumStates(), start)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, err = legacyStepAt(c, p); err != nil {
			b.Fatal(err)
		}
	}
}
