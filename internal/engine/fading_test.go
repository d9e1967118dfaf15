package engine

import (
	"context"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// fadingSpec returns the typical network with every link on the given
// fading block (nil = scalar defaults).
func fadingSpec(f *spec.Fading) *spec.Spec {
	s := spec.TypicalSpec()
	for i := range s.Links {
		s.Links[i].Fading = f
	}
	return s
}

// twoStateFading returns the fading-block spelling of the classic model
// with the given p_fl: success probs {1, 0} over the UP/DOWN chain.
func twoStateFading(t *testing.T, pfl float64) *spec.Fading {
	t.Helper()
	return &spec.Fading{
		Transitions: [][]float64{
			{1 - pfl, pfl},
			{link.DefaultRecoveryProb, 1 - link.DefaultRecoveryProb},
		},
		Success: []float64{1, 0},
	}
}

// TestFadingKeyDistinct is the satellite-2 cache-correctness guard: two
// scenarios identical except for the fading block must produce distinct
// canonical keys and distinct cached results — including against the
// scalar spelling of the same two-state parameters.
func TestFadingKeyDistinct(t *testing.T) {
	scalar := fadingSpec(nil)
	embed := fadingSpec(twoStateFading(t, 0.1))
	other := fadingSpec(twoStateFading(t, 0.2))
	bursty := fadingSpec(&spec.Fading{
		Transitions: [][]float64{
			{0.9, 0.05, 0.05},
			{0.05, 0.9, 0.05},
			{0.05, 0.05, 0.9},
		},
		Success: []float64{0.1, 0.7, 0.99},
	})

	keys := map[string]string{}
	for name, s := range map[string]*spec.Spec{
		"scalar": scalar, "embed": embed, "other": other, "bursty": bursty,
	} {
		k, err := Key(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s and %s share canonical key %s", name, prev, k)
			}
		}
		keys[name] = k
	}

	// The distinct keys must map to distinct cached results: evaluating
	// both fading scenarios then re-evaluating must hit the cache and
	// still return each scenario's own numbers.
	eng := New(Config{})
	ctx := context.Background()
	rEmbed, err := eng.Evaluate(ctx, embed)
	if err != nil {
		t.Fatal(err)
	}
	rOther, err := eng.Evaluate(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if rEmbed.Utilization == rOther.Utilization {
		t.Error("different fading blocks produced identical utilization")
	}
	hits0 := eng.MetricsSnapshot().CacheHits
	again, err := eng.Evaluate(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if eng.MetricsSnapshot().CacheHits != hits0+1 {
		t.Error("re-evaluation did not hit the cache")
	}
	if again.Utilization != rOther.Utilization {
		t.Error("cached result differs from first solve")
	}
	if again.Key == rEmbed.Key {
		t.Error("cached fading results share a key")
	}
}

// TestFadingTwoStateEngineEquivalence is the satellite-1 pin at the engine
// layer: a fading block spelling out the classic model's UP/DOWN chain
// must reproduce the scalar scenario's results at 1e-12 — through its own
// cache entry.
func TestFadingTwoStateEngineEquivalence(t *testing.T) {
	scalar := fadingSpec(nil)
	// Match the scalar default exactly: resolve the default-parameterized
	// link to its model and spell that model as a fading block.
	r := scalar.ResolveLinks(nil)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	m := link.MemorylessEquivalent(r.Process())
	embed := fadingSpec(&spec.Fading{
		Transitions: [][]float64{
			{1 - m.FailureProb(), m.FailureProb()},
			{m.RecoveryProb(), 1 - m.RecoveryProb()},
		},
		Success: []float64{1, 0},
	})

	eng := New(Config{})
	ctx := context.Background()
	want, err := eng.Evaluate(ctx, scalar)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Evaluate(ctx, embed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key == want.Key {
		t.Fatal("fading embedding shares the scalar scenario's key")
	}
	if !almostEqual(got.Utilization, want.Utilization, 1e-12) {
		t.Errorf("utilization = %v, want %v", got.Utilization, want.Utilization)
	}
	if !almostEqual(got.OverallMeanDelayMS, want.OverallMeanDelayMS, 1e-12) {
		t.Errorf("E[Gamma] = %v, want %v", got.OverallMeanDelayMS, want.OverallMeanDelayMS)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%d paths, want %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		if !almostEqual(got.Paths[i].Reachability, want.Paths[i].Reachability, 1e-12) {
			t.Errorf("path %d reachability = %v, want %v",
				i, got.Paths[i].Reachability, want.Paths[i].Reachability)
		}
		if !almostEqual(got.Paths[i].ExpectedDelayMS, want.Paths[i].ExpectedDelayMS, 1e-12) {
			t.Errorf("path %d delay = %v, want %v",
				i, got.Paths[i].ExpectedDelayMS, want.Paths[i].ExpectedDelayMS)
		}
	}
}

// TestFadingBatchMatchesScalarEvaluate pins EvaluateBatch against scalar
// Evaluate at 1e-12 for fading scenarios — the batched half of the
// acceptance criterion.
func TestFadingBatchMatchesScalarEvaluate(t *testing.T) {
	specs := []*spec.Spec{
		fadingSpec(&spec.Fading{
			Transitions: [][]float64{
				{0.9, 0.05, 0.05},
				{0.05, 0.9, 0.05},
				{0.05, 0.05, 0.9},
			},
			Success: []float64{0.1, 0.7, 0.99},
		}),
		fadingSpec(twoStateFading(t, 0.15)),
	}
	batchEng := New(Config{})
	ctx := context.Background()
	batch, err := batchEng.EvaluateBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	scalarEng := New(Config{})
	for i, s := range specs {
		want, err := scalarEng.Evaluate(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(batch[i].Utilization, want.Utilization, 1e-12) {
			t.Errorf("scenario %d utilization = %v, want %v", i, batch[i].Utilization, want.Utilization)
		}
		for j := range want.Paths {
			if !almostEqual(batch[i].Paths[j].Reachability, want.Paths[j].Reachability, 1e-12) {
				t.Errorf("scenario %d path %d reachability diverges", i, j)
			}
		}
	}
}
