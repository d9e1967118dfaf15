package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"wirelesshart"
	"wirelesshart/internal/spec"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// TestEvaluateMatchesAnalyze pins the engine to the library: solving the
// typical network through the engine must reproduce Network.Analyze.
func TestEvaluateMatchesAnalyze(t *testing.T) {
	net, err := wirelesshart.Typical()
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{})
	got, err := eng.Evaluate(context.Background(), spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fup != want.Fup {
		t.Errorf("Fup = %d, want %d", got.Fup, want.Fup)
	}
	if !almostEqual(got.Utilization, want.Utilization, 1e-12) {
		t.Errorf("utilization = %v, want %v", got.Utilization, want.Utilization)
	}
	if !almostEqual(got.OverallMeanDelayMS, want.OverallMeanDelayMS, 1e-9) {
		t.Errorf("E[Gamma] = %v, want %v", got.OverallMeanDelayMS, want.OverallMeanDelayMS)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%d paths, want %d", len(got.Paths), len(want.Paths))
	}
	for i, wp := range want.Paths {
		gp := got.Paths[i]
		if gp.Source != wp.Source {
			t.Fatalf("path %d source %q, want %q", i, gp.Source, wp.Source)
		}
		if !almostEqual(gp.Reachability, wp.Reachability, 1e-12) {
			t.Errorf("%s: R = %v, want %v", gp.Source, gp.Reachability, wp.Reachability)
		}
		if !almostEqual(gp.ExpectedDelayMS, wp.ExpectedDelayMS, 1e-9) {
			t.Errorf("%s: E[tau] = %v, want %v", gp.Source, gp.ExpectedDelayMS, wp.ExpectedDelayMS)
		}
		if gp.Hops != wp.Hops {
			t.Errorf("%s: hops = %d, want %d", gp.Source, gp.Hops, wp.Hops)
		}
		if len(gp.CycleProbs) != len(wp.CycleProbs) {
			t.Fatalf("%s: %d cycles, want %d", gp.Source, len(gp.CycleProbs), len(wp.CycleProbs))
		}
		for c := range wp.CycleProbs {
			if !almostEqual(gp.CycleProbs[c], wp.CycleProbs[c], 1e-12) {
				t.Errorf("%s: cycle %d prob %v, want %v", gp.Source, c+1, gp.CycleProbs[c], wp.CycleProbs[c])
			}
		}
	}
}

// TestSpecHookSharesKey verifies the root-package build hook: the spec
// exported from the fluent API must hash to the same scenario as the
// hand-written TypicalSpec.
func TestSpecHookSharesKey(t *testing.T) {
	net, err := wirelesshart.Typical()
	if err != nil {
		t.Fatal(err)
	}
	fromAPI, err := net.Spec()
	if err != nil {
		t.Fatal(err)
	}
	k1 := mustKey(t, fromAPI)
	k2 := mustKey(t, spec.TypicalSpec())
	if k1 != k2 {
		t.Errorf("Network.Spec() key %s != TypicalSpec key %s", k1[:12], k2[:12])
	}
}

// TestSingleFlight floods the engine with identical concurrent queries:
// exactly one solve must run, everyone gets the same answer.
func TestSingleFlight(t *testing.T) {
	const goroutines = 8
	eng := New(Config{Workers: 4})
	s := spec.TypicalSpec()
	start := make(chan struct{})
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = eng.Evaluate(context.Background(), s)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Key != results[0].Key {
			t.Fatalf("goroutine %d got a different result", i)
		}
	}
	if solves := eng.Metrics().Solves(); solves != 1 {
		t.Errorf("%d solves for %d identical concurrent queries, want exactly 1", solves, goroutines)
	}
	snap := eng.MetricsSnapshot()
	if total := snap.CacheHits + snap.CacheMisses + snap.Deduped; total != goroutines {
		t.Errorf("hits+misses+deduped = %d, want %d", total, goroutines)
	}
}

// TestCacheHit verifies the second identical query is served without a
// second solve.
func TestCacheHit(t *testing.T) {
	eng := New(Config{})
	ctx := context.Background()
	first, err := eng.Evaluate(ctx, spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Evaluate(ctx, spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache hit must return the cached result")
	}
	if solves := eng.Metrics().Solves(); solves != 1 {
		t.Errorf("%d solves, want 1", solves)
	}
	if hits := eng.Metrics().CacheHits(); hits != 1 {
		t.Errorf("%d cache hits, want 1", hits)
	}
}

// TestLRUEviction verifies the cache is bounded: with capacity 1 the first
// scenario is evicted by the second and must be re-solved.
func TestLRUEviction(t *testing.T) {
	eng := New(Config{CacheSize: 1})
	ctx := context.Background()
	s1 := spec.TypicalSpec()
	s2 := spec.TypicalSpec()
	s2.ReportingInterval = 2
	for _, s := range []*spec.Spec{s1, s2, s1} {
		if _, err := eng.Evaluate(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if solves := eng.Metrics().Solves(); solves != 3 {
		t.Errorf("%d solves, want 3 (capacity-1 cache must evict)", solves)
	}
	if snap := eng.MetricsSnapshot(); snap.CacheLen != 1 {
		t.Errorf("cache holds %d entries, want 1", snap.CacheLen)
	}
}

// TestPredictMatchesLibrary pins the engine's composed routing prediction
// to Network.PredictAttachment, and the ranking to RankPredictions — the
// routingadvisor example's rule.
func TestPredictMatchesLibrary(t *testing.T) {
	net, err := wirelesshart.Typical()
	if err != nil {
		t.Fatal(err)
	}
	candidates := []Candidate{
		{Via: "n4", EbN0s: []float64{7}},
		{Via: "n1", EbN0s: []float64{6}},
		{Via: "n9", EbN0s: []float64{12}},
		{Via: "n3", EbN0s: []float64{4}},
	}
	eng := New(Config{})
	ctx := context.Background()
	var wantPreds []*wirelesshart.Prediction
	for _, c := range candidates {
		want, err := net.PredictAttachment(c.Via, c.EbN0s[0])
		if err != nil {
			t.Fatal(err)
		}
		wantPreds = append(wantPreds, want)
		got, err := eng.Predict(ctx, spec.TypicalSpec(), c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hops != want.Hops {
			t.Errorf("via %s: hops = %d, want %d", c.Via, got.Hops, want.Hops)
		}
		if !almostEqual(got.Reachability, want.Reachability, 1e-12) {
			t.Errorf("via %s: R = %v, want %v", c.Via, got.Reachability, want.Reachability)
		}
		if len(got.CycleProbs) != len(want.CycleProbs) {
			t.Fatalf("via %s: %d cycles, want %d", c.Via, len(got.CycleProbs), len(want.CycleProbs))
		}
		for i := range want.CycleProbs {
			if !almostEqual(got.CycleProbs[i], want.CycleProbs[i], 1e-12) {
				t.Errorf("via %s: cycle %d = %v, want %v", c.Via, i+1, got.CycleProbs[i], want.CycleProbs[i])
			}
		}
	}
	ranked, err := eng.PredictRanked(ctx, spec.TypicalSpec(), candidates)
	if err != nil {
		t.Fatal(err)
	}
	wantRanked := wirelesshart.RankPredictions(wantPreds)
	for i := range wantRanked {
		if ranked[i].Via != wantRanked[i].Via {
			t.Fatalf("rank %d: %s, want %s", i, ranked[i].Via, wantRanked[i].Via)
		}
	}
	// The whole exercise re-used one cached network solve.
	if solves := eng.Metrics().Solves(); solves != 1 {
		t.Errorf("%d network solves across predictions, want 1", solves)
	}
}

// TestPredictValidation exercises the query-side error paths.
func TestPredictValidation(t *testing.T) {
	eng := New(Config{})
	ctx := context.Background()
	cases := []Candidate{
		{},                                      // no via
		{Via: "n4"},                             // no SNR
		{Via: "G", EbN0s: []float64{7}},         // gateway has no uplink path
		{Via: "nope", EbN0s: []float64{7}},      // unknown node
		{Via: "n4", EbN0s: make([]float64, 64)}, // peer path exceeds the frame
	}
	for i, c := range cases {
		if _, err := eng.Predict(ctx, spec.TypicalSpec(), c); !errors.Is(err, ErrBadScenario) {
			t.Errorf("case %d: err = %v, want ErrBadScenario", i, err)
		}
	}
}

// TestEvaluateBadScenario maps build failures onto ErrBadScenario.
func TestEvaluateBadScenario(t *testing.T) {
	eng := New(Config{})
	s := spec.TypicalSpec()
	s.Links = append(s.Links, spec.Link{A: "n1", B: "ghost"})
	if _, err := eng.Evaluate(context.Background(), s); !errors.Is(err, ErrBadScenario) {
		t.Errorf("err = %v, want ErrBadScenario", err)
	}
	if e := eng.Metrics().snapshot().Errors; e == 0 {
		t.Error("error counter did not move")
	}
}

// TestEvaluateCanceledContext refuses work on a dead context.
func TestEvaluateCanceledContext(t *testing.T) {
	eng := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Evaluate(ctx, spec.TypicalSpec()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMetricsLatency checks the histogram's quantile plumbing.
func TestMetricsLatency(t *testing.T) {
	eng := New(Config{})
	if _, err := eng.Evaluate(context.Background(), spec.TypicalSpec()); err != nil {
		t.Fatal(err)
	}
	snap := eng.MetricsSnapshot()
	if snap.SolveTime.Count != 1 {
		t.Fatalf("latency count = %d, want 1", snap.SolveTime.Count)
	}
	if snap.SolveTime.P50MS <= 0 || snap.SolveTime.P99MS < snap.SolveTime.P50MS {
		t.Errorf("implausible latency quantiles: p50=%v p99=%v", snap.SolveTime.P50MS, snap.SolveTime.P99MS)
	}
	if snap.Workers <= 0 || snap.CacheCap <= 0 {
		t.Errorf("snapshot sizing not populated: %+v", snap)
	}
}

// failureSpec returns the typical network with a DOWN window injected on
// the n3-G link during uplink slots [from, to).
func failureSpec(t *testing.T, from, to int) *spec.Spec {
	t.Helper()
	s := spec.TypicalSpec()
	for i := range s.Links {
		if s.Links[i].A == "n3" && s.Links[i].B == "G" {
			s.Links[i].Failure = &spec.Failure{Kind: "window", FromSlot: from, ToSlot: to}
			return s
		}
	}
	t.Fatal("typical spec has no n3-G link")
	return nil
}

// TestStructCacheSharesAcrossFailureScenarios checks the structure tier: a
// failure-injection scenario must match the direct core path exactly, and
// a second scenario with a different failure window — a guaranteed miss in
// the result cache, and for the failed link's paths in the path-result
// memo — must rebind
// onto the cached path structures instead of re-running Algorithm 1.
func TestStructCacheSharesAcrossFailureScenarios(t *testing.T) {
	eng := New(Config{})
	ctx := context.Background()

	res1, err := eng.Evaluate(ctx, failureSpec(t, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	// The engine result must reproduce the direct core analysis.
	built, err := failureSpec(t, 0, 20).Build()
	if err != nil {
		t.Fatal(err)
	}
	na, err := built.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	bySource := map[string]float64{}
	for _, p := range res1.Paths {
		bySource[p.Source] = p.Reachability
	}
	for _, pa := range na.Paths {
		node, err := built.Net.Node(pa.Source)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := bySource[node.Name]
		if !ok {
			t.Fatalf("engine result missing path for %s", node.Name)
		}
		if !almostEqual(got, pa.Reachability, 1e-12) {
			t.Errorf("%s: engine R = %v, core R = %v", node.Name, got, pa.Reachability)
		}
	}

	snap := eng.MetricsSnapshot()
	if snap.StructCacheMisses == 0 {
		t.Fatal("cold failure solve should build structures")
	}
	if snap.StructCacheLen == 0 {
		t.Error("structure cache empty after cold solve")
	}
	misses, hits := snap.StructCacheMisses, snap.StructCacheHits

	// A shifted window: new scenario key, new bound values, same geometry.
	if _, err := eng.Evaluate(ctx, failureSpec(t, 5, 25)); err != nil {
		t.Fatal(err)
	}
	if solves := eng.Metrics().Solves(); solves != 2 {
		t.Fatalf("%d solves, want 2 (distinct failure windows must not share results)", solves)
	}
	snap = eng.MetricsSnapshot()
	if snap.StructCacheMisses != misses {
		t.Errorf("second failure scenario built %d new structures, want 0", snap.StructCacheMisses-misses)
	}
	if snap.StructCacheHits <= hits {
		t.Error("second failure scenario recorded no structure-cache hit")
	}
}

// TestKernelCacheSharesPathModels checks the path-result memo (still
// reported as kernelCache*): a cold solve misses once per path, and a
// second scenario with a different downlink frame (distinct scenario key,
// identical uplink path chains) is answered from the memo without binding
// or solving any path, exactly as a direct analysis of it would be.
func TestKernelCacheSharesPathModels(t *testing.T) {
	eng := New(Config{})
	ctx := context.Background()

	first, err := eng.Evaluate(ctx, spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.MetricsSnapshot()
	if snap.KernelCacheMisses != int64(len(first.Paths)) || snap.KernelCacheHits != 0 {
		t.Fatalf("cold solve: memo misses=%d hits=%d, want %d/0",
			snap.KernelCacheMisses, snap.KernelCacheHits, len(first.Paths))
	}
	if snap.KernelCacheLen != len(first.Paths) {
		t.Errorf("memo holds %d results after a cold solve, want %d", snap.KernelCacheLen, len(first.Paths))
	}
	misses, hits := snap.KernelCacheMisses, snap.KernelCacheHits

	warm := spec.TypicalSpec()
	warm.Fdown = 9 // new scenario key, same uplink path chains
	second, err := eng.Evaluate(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	snap = eng.MetricsSnapshot()
	if snap.KernelCacheMisses != misses {
		t.Errorf("warm solve missed the memo %d times, want 0", snap.KernelCacheMisses-misses)
	}
	if got := snap.KernelCacheHits - hits; got != int64(len(second.Paths)) {
		t.Errorf("warm solve hit the memo %d times, want %d", got, len(second.Paths))
	}
	tr := eng.Traces().Snapshot()[0]
	for _, stage := range []string{"bind", "solve"} {
		if _, ok := tr.Span(stage); ok {
			t.Errorf("warm solve recorded a %q span; every path should come from the memo", stage)
		}
	}
	for i := range first.Paths {
		a, b := first.Paths[i], second.Paths[i]
		if math.Float64bits(a.Reachability) != math.Float64bits(b.Reachability) {
			t.Errorf("%s: memoized reachability %v, want %v", b.Source, b.Reachability, a.Reachability)
		}
		for c := range a.CycleProbs {
			if math.Float64bits(a.CycleProbs[c]) != math.Float64bits(b.CycleProbs[c]) {
				t.Errorf("%s cycle %d: memoized %v, want %v", b.Source, c+1, b.CycleProbs[c], a.CycleProbs[c])
			}
		}
	}
	assertSameAsAnalyze(t, warm, second)
}
