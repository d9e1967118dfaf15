package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wirelesshart/internal/spec"
)

// TestEvaluateBatchMatchesScalar pins the batched endpoint against
// per-scenario Evaluate calls on a fresh engine: a mix of the typical
// scenario and failure-injection windows must produce identical results in
// request order.
func TestEvaluateBatchMatchesScalar(t *testing.T) {
	specs := []*spec.Spec{
		spec.TypicalSpec(),
		failureSpec(t, 0, 20),
		failureSpec(t, 5, 25),
		failureSpec(t, 10, 30),
	}
	batchEng := New(Config{})
	got, err := batchEng.EvaluateBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("%d results, want %d", len(got), len(specs))
	}
	scalarEng := New(Config{})
	for i, s := range specs {
		want, err := scalarEng.Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i]
		if g.Key != want.Key {
			t.Fatalf("scenario %d: key %s vs %s", i, g.Key[:12], want.Key[:12])
		}
		if !almostEqual(g.Utilization, want.Utilization, 1e-12) {
			t.Errorf("scenario %d: utilization %v vs %v", i, g.Utilization, want.Utilization)
		}
		if !almostEqual(g.OverallMeanDelayMS, want.OverallMeanDelayMS, 1e-9) {
			t.Errorf("scenario %d: E[Gamma] %v vs %v", i, g.OverallMeanDelayMS, want.OverallMeanDelayMS)
		}
		if len(g.Paths) != len(want.Paths) {
			t.Fatalf("scenario %d: %d paths, want %d", i, len(g.Paths), len(want.Paths))
		}
		for j, wp := range want.Paths {
			if g.Paths[j].Source != wp.Source {
				t.Fatalf("scenario %d path %d: source %q vs %q", i, j, g.Paths[j].Source, wp.Source)
			}
			if !almostEqual(g.Paths[j].Reachability, wp.Reachability, 1e-12) {
				t.Errorf("scenario %d %s: R %v vs %v", i, wp.Source, g.Paths[j].Reachability, wp.Reachability)
			}
		}
	}
}

// TestEvaluateBatchDedupAndCache checks the sharing tiers: intra-request
// duplicates collapse onto one solve and share the result pointer; a
// second batch over the same scenarios is served entirely from the cache.
func TestEvaluateBatchDedupAndCache(t *testing.T) {
	eng := New(Config{})
	ctx := context.Background()
	specs := []*spec.Spec{
		spec.TypicalSpec(),
		failureSpec(t, 0, 20),
		spec.TypicalSpec(),    // duplicate of 0
		failureSpec(t, 0, 20), // duplicate of 1
	}
	got, err := eng.EvaluateBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != got[2] || got[1] != got[3] {
		t.Error("intra-request duplicates did not share one result")
	}
	snap := eng.MetricsSnapshot()
	if snap.BatchRequests != 1 || snap.BatchScenarios != 4 {
		t.Errorf("batch counters: requests=%d scenarios=%d", snap.BatchRequests, snap.BatchScenarios)
	}
	if snap.BatchDeduped != 2 {
		t.Errorf("batch deduped = %d, want 2", snap.BatchDeduped)
	}
	if snap.BatchSolved != 2 {
		t.Errorf("batch solved = %d, want 2", snap.BatchSolved)
	}
	if math.Abs(snap.BatchDedupRatio-0.5) > 1e-12 {
		t.Errorf("batch dedup ratio = %v, want 0.5", snap.BatchDedupRatio)
	}
	if snap.BatchSubSolveTime.Count != 2 || snap.BatchSubSolveTime.MeanMS <= 0 {
		t.Errorf("per-sub-scenario solve time not recorded: %+v", snap.BatchSubSolveTime)
	}

	// Second round: all unique keys are cache hits, nothing solves.
	again, err := eng.EvaluateBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != got[0] || again[1] != got[1] {
		t.Error("second batch did not serve cached results")
	}
	snap = eng.MetricsSnapshot()
	if snap.BatchSolved != 2 {
		t.Errorf("cached batch re-solved: solved=%d", snap.BatchSolved)
	}
	if snap.BatchDedupRatio <= 0.5 {
		t.Errorf("dedup ratio %v should rise with the fully cached round", snap.BatchDedupRatio)
	}

	// The scalar path shares the same cache.
	scalar, err := eng.Evaluate(ctx, spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if scalar != got[0] {
		t.Error("Evaluate did not hit the batch-populated cache")
	}
}

func TestEvaluateBatchErrors(t *testing.T) {
	eng := New(Config{})
	ctx := context.Background()
	if _, err := eng.EvaluateBatch(ctx, nil); !errors.Is(err, ErrBadScenario) {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := eng.EvaluateBatch(ctx, []*spec.Spec{nil}); !errors.Is(err, ErrBadScenario) {
		t.Errorf("null scenario: %v", err)
	}
	bad := spec.TypicalSpec()
	bad.Links[0].Failure = &spec.Failure{Kind: "flaky"}
	_, err := eng.EvaluateBatch(ctx, []*spec.Spec{spec.TypicalSpec(), bad})
	if !errors.Is(err, ErrBadScenario) {
		t.Errorf("bad sub-scenario: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "scenario 1") {
		t.Errorf("error does not name the failing sub-scenario: %v", err)
	}
	// Canonicalization failures reject the batch before anything solves.
	if snap := eng.MetricsSnapshot(); snap.BatchSolved != 0 {
		t.Errorf("rejected batch still solved %d sub-scenarios", snap.BatchSolved)
	}
}

func TestEvaluateBatchCanceledContext(t *testing.T) {
	eng := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EvaluateBatch(ctx, []*spec.Spec{spec.TypicalSpec()}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batch: %v", err)
	}
}

// interleavedSweeps is the failure sweeps of two generated networks,
// column by column: a0, b0, a1, b1, ... — a batch over two intact networks.
func interleavedSweeps(t *testing.T) []*spec.Spec {
	t.Helper()
	nets := memoNetworks(t)[1:3]
	a, b := failSweep(nets[0]), failSweep(nets[1])
	var out []*spec.Spec
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// TestInterleavedBatchBodyBytes: a /v1/batch whose columns alternate
// between two networks builds each network once and derives every other
// column from it, and its body is still the direct analyses byte for
// byte. A column that fails, sent with the others to a fresh engine,
// fails the batch with the error text it gave before columns shared
// builds: an unknown failure kind (rejected by the key), an empty failure
// window on a shared network (rejected by the overlay, then by the
// column's own build) and a link to an unknown node.
func TestInterleavedBatchBodyBytes(t *testing.T) {
	sweep := interleavedSweeps(t)
	if got := serve(t, NewHandler(New(Config{}), 30*time.Second), "/v1/batch", map[string]any{"scenarios": sweep}); !bytes.Equal(got, directBatchBody(t, sweep)) {
		t.Error("interleaved sweeps: /v1/batch body differs from the direct analyses")
	}

	column := func(edit func(c *spec.Spec)) *spec.Spec {
		c := *sweep[2]
		c.Links = append([]spec.Link(nil), c.Links...)
		edit(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		col  *spec.Spec
		want string
	}{
		{"unknown failure kind", column(func(c *spec.Spec) {
			c.Links[3].Failure = &spec.Failure{Kind: "meteor"}
		}), `engine: batch scenario 5: engine: invalid scenario: engine: link "n2"-"n4": unknown failure kind "meteor"`},
		{"empty failure window", column(func(c *spec.Spec) {
			c.Links[3].Failure = &spec.Failure{Kind: "window", FromSlot: 9, ToSlot: 3}
		}), `engine: batch scenario 5: engine: invalid scenario: spec: link "n2"-"n4": link: invalid failure window [9,3)`},
		{"unknown node", column(func(c *spec.Spec) {
			c.Links[4].B = "ghost"
		}), `engine: batch scenario 5: engine: invalid scenario: spec: link 4 references unknown node ("n4"-"ghost")`},
	} {
		batch := append(append(append([]*spec.Spec(nil), sweep[:5]...), tc.col), sweep[5:]...)
		b, err := json.Marshal(map[string]any{"scenarios": batch})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewHandler(New(Config{}), 30*time.Second).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(b)))
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || body.Error != tc.want {
			t.Errorf("%s: status %d, error %q; want 400, %q", tc.name, rec.Code, body.Error, tc.want)
		}
	}
}

// TestTimedOutSolveReturnsItsWorker: with one worker, a /v1/network
// request whose deadline passes while its paths solve at a large Is gets
// a 504 without solving the rest of its paths, and a request queued
// behind it takes the worker token right after, not after a full solve.
// The timeout counts no engine error. The deadline and the bounds scale with the measured full solve, so the
// test holds on slow machines and under the race detector.
func TestTimedOutSolveReturnsItsWorker(t *testing.T) {
	slow := spec.TypicalSpec()
	slow.ReportingInterval = 8192
	start := time.Now()
	if _, err := New(Config{Workers: 1}).Evaluate(context.Background(), slow); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	eng := New(Config{Workers: 1})
	post := func(h http.Handler, s *spec.Spec) *httptest.ResponseRecorder {
		body, err := json.Marshal(map[string]any{"scenario": s})
		if err != nil {
			t.Error(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/network", bytes.NewReader(body)))
		return rec
	}
	timedOut := make(chan *httptest.ResponseRecorder, 1)
	go func() { timedOut <- post(NewHandler(eng, full/8), slow) }()
	waitFor(t, "the slow request to take the worker", func() bool { return eng.MetricsSnapshot().InFlight == 1 })

	queuedAt := time.Now()
	if rec := post(NewHandler(eng, 0), spec.TypicalSpec()); rec.Code != http.StatusOK {
		t.Fatalf("queued request: status %d: %s", rec.Code, rec.Body)
	}
	if waited := time.Since(queuedAt); waited > full*6/10 {
		t.Errorf("queued request took %v behind a timed-out request; a full solve takes %v", waited, full)
	}
	if rec := <-timedOut; rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d: %s", rec.Code, rec.Body)
	}
	// The typical network at Is 4 fills 10 memo entries; the slow
	// request's solved paths add fewer than its 10.
	if n := eng.MetricsSnapshot().KernelCacheLen; n >= 20 {
		t.Errorf("memo holds %d paths: the timed-out request solved all of its own", n)
	}
	if n := eng.MetricsSnapshot().CacheLen; n != 1 {
		t.Errorf("%d cached results, want 1: a timed-out solve is not cached", n)
	}
	if n := eng.MetricsSnapshot().Errors; n != 0 {
		t.Errorf("errors = %d, want 0: a timed-out solve is the client's timeout, not an engine error", n)
	}
}
