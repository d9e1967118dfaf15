package pathmodel

import (
	"math"
	"testing"

	"wirelesshart/internal/link"
)

// TestBindProcessesTwoStateEquivalence pins the two-state equivalence at
// the pathmodel layer: a path bound to the steady marginals of the k=2
// embedding of the classic link process must solve to the same result as
// the classic model, at 1e-12.
func TestBindProcessesTwoStateEquivalence(t *testing.T) {
	slots := []int{1, 2, 3}
	st, err := BuildStructure(slots, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := link.New(0.17, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := link.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := st.Bind([]link.Availability{m.Steady(), m.Steady(), m.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	fading, err := st.Bind([]link.Availability{ks.Steady(), ks.Steady(), ks.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := classic.Solve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fading.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CycleProbs) != len(want.CycleProbs) {
		t.Fatalf("%d cycles, want %d", len(got.CycleProbs), len(want.CycleProbs))
	}
	for i := range got.CycleProbs {
		if d := math.Abs(got.CycleProbs[i] - want.CycleProbs[i]); d > 1e-12 {
			t.Errorf("cycle %d diverges by %v", i+1, d)
		}
	}
	if d := math.Abs(got.Reachability() - want.Reachability()); d > 1e-12 {
		t.Errorf("reachability diverges by %v", d)
	}
	if d := math.Abs(got.ExpectedAttempts - want.ExpectedAttempts); d > 1e-12 {
		t.Errorf("expected attempts diverge by %v", d)
	}
}

// TestFadingBatchMatchesScalar pins the batch solver against scalar solves
// at 1e-12 for k-state fading scenarios mixed with transient marginals
// that vary per slot — the acceptance criterion that fading availabilities
// flow through Bind/BindBatch and SolveBatch unchanged.
func TestFadingBatchMatchesScalar(t *testing.T) {
	slots := []int{1, 2, 3}
	st, err := BuildStructure(slots, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := link.NewUniformMixing(0.9, []float64{0.15, 0.7, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	m, err := link.New(0.17, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Links known DOWN (faded) or UP (clear) at slot 0.
	faded := func(slot int) float64 { return m.TransientUp(0, slot) }
	clear := func(slot int) float64 { return m.TransientUp(1, slot) }
	scenarios := [][]link.Availability{
		{bursty.Steady(), bursty.Steady(), bursty.Steady()},
		{faded, bursty.Steady(), m.Steady()},
		{clear, faded, bursty.Steady()},
	}
	batch, err := st.BindBatch(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	results, err := SolveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for k, avails := range scenarios {
		scalarModel, err := st.Bind(avails)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scalarModel.Solve()
		if err != nil {
			t.Fatal(err)
		}
		got := results[k]
		for i := range got.CycleProbs {
			if d := math.Abs(got.CycleProbs[i] - want.CycleProbs[i]); d > 1e-12 {
				t.Errorf("scenario %d cycle %d diverges by %v", k, i+1, d)
			}
		}
		if d := math.Abs(got.Reachability() - want.Reachability()); d > 1e-12 {
			t.Errorf("scenario %d reachability diverges by %v", k, d)
		}
	}
}
