package engine

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"testing"
	"time"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// analyzeDirect solves s with spec.Build()+Analyze() — no engine, no cache
// of any tier — and renders it as the engine's wire result.
func analyzeDirect(t *testing.T, s *spec.Spec) *Result {
	t.Helper()
	built, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	na, err := built.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, s)
	return assembleResult(key, newNetBase(built), na, nil)
}

// assertSameAsAnalyze requires got to be bit-identical to the direct
// analysis of s. JSON renders every float64 in its shortest round-trip
// form, so equal bytes mean equal bits.
func assertSameAsAnalyze(t *testing.T, s *spec.Spec, got *Result) {
	t.Helper()
	want, err := json.Marshal(analyzeDirect(t, s))
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("scenario %s: engine result is not bit-identical to Build()+Analyze()", got.Key[:12])
	}
}

// memoNetworks is the typical network plus eight generated ones.
func memoNetworks(t *testing.T) []*spec.Spec {
	t.Helper()
	out := []*spec.Spec{spec.TypicalSpec()}
	for i := 0; i < 8; i++ {
		g, err := gen.Generate(16, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g.Spec)
	}
	return out
}

// failSweep returns s with each of its links failed in turn over uplink
// slots [0, 20) — the batch whart-fleet -failsweep sends per network.
func failSweep(s *spec.Spec) []*spec.Spec {
	out := make([]*spec.Spec, len(s.Links))
	for i := range s.Links {
		c := *s
		c.Links = append([]spec.Link(nil), s.Links...)
		c.Links[i].Failure = &spec.Failure{Kind: "window", FromSlot: 0, ToSlot: 20}
		out[i] = &c
	}
	return out
}

// spellings returns s written four other ways that key alike: its links
// declared in reverse order, each link's endpoints swapped, each two-state
// link as the p_fl and p_rc it resolves to, and its defaults spelled out.
func spellings(t *testing.T, s *spec.Spec) []*spec.Spec {
	t.Helper()
	out := make([]*spec.Spec, 4)
	for i := range out {
		out[i] = cloneSpec(t, s)
	}
	slices.Reverse(out[0].Links)
	for i := range out[1].Links {
		l := &out[1].Links[i]
		l.A, l.B = l.B, l.A
	}
	resolved := s.ResolveLinks(nil)
	for i, l := range out[2].Links {
		if l.Fading != nil {
			continue
		}
		if err := resolved[i].Err; err != nil {
			t.Fatal(err)
		}
		pfl, prc := resolved[i].Model.FailureProb(), resolved[i].Model.RecoveryProb()
		out[2].Links[i] = spec.Link{A: l.A, B: l.B, PFl: &pfl, PRc: &prc, Failure: l.Failure}
	}
	d := out[3]
	ber := channel.DefaultBER
	d.MessageBits, d.DefaultBER = d.Bits(), cmp.Or(d.DefaultBER, &ber)
	d.ReportingInterval = cmp.Or(d.ReportingInterval, 4)
	d.Schedule.Channels = cmp.Or(d.Schedule.Channels, 1)
	for i := range d.Nodes {
		d.Nodes[i].Kind = cmp.Or(d.Nodes[i].Kind, "field-device")
		if d.Nodes[i].Kind == "field-device" && len(s.Sources) == 0 {
			d.Sources = append(d.Sources, d.Nodes[i].Name)
		}
	}
	return out
}

// freshBatchBody is the /v1/batch body of specs assembled from
// per-scenario answers, each from a fresh engine.
func freshBatchBody(t *testing.T, specs []*spec.Spec) []byte {
	t.Helper()
	results := make([]*Result, len(specs))
	for i, s := range specs {
		res, err := New(Config{}).Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	body, err := appendBatchBody(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEvaluatePathsBitIdentical pins the one solve path against the
// library: Evaluate, EvaluateBatch of one scenario and a failure-sweep
// EvaluateBatch — whose columns share memoized paths and solve each
// distinct path once — must each equal spec.Build()+Analyze() bit for bit.
func TestEvaluatePathsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for n, s := range memoNetworks(t) {
		one, err := New(Config{}).Evaluate(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAsAnalyze(t, s, one)
		batchOfOne, err := New(Config{}).EvaluateBatch(ctx, []*spec.Spec{s})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAsAnalyze(t, s, batchOfOne[0])

		if testing.Short() && n > 0 {
			continue // -short sweeps the typical network only
		}
		// The whole sweep solves as one batch; every fourth column is
		// checked, which covers memo hits and fresh solves alike.
		sweep := failSweep(s)
		swept, err := New(Config{}).EvaluateBatch(ctx, sweep)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(swept); i += 4 {
			assertSameAsAnalyze(t, sweep[i], swept[i])
		}
	}
}

// TestFailsweepSolvesEachPathOnce: on a fresh engine, a failure-sweep
// batch records exactly one memo miss per distinct steady-state path DTMC
// and solves each distinct path once — every other lookup is a memo hit.
func TestFailsweepSolvesEachPathOnce(t *testing.T) {
	for _, s := range memoNetworks(t)[:3] {
		sweep := failSweep(s)
		distinct := map[string]bool{}
		keyed, overridden := 0, 0
		for _, sc := range sweep {
			built, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			an := built.Analyzer
			for _, src := range an.Sources() {
				key, ok := an.SourceKey(src)
				if !ok {
					overridden++
					continue
				}
				keyed++
				distinct[key] = true
			}
		}
		eng := New(Config{})
		if _, err := eng.EvaluateBatch(context.Background(), sweep); err != nil {
			t.Fatal(err)
		}
		snap := eng.MetricsSnapshot()
		if snap.KernelCacheMisses != int64(len(distinct)) {
			t.Errorf("%d memo misses, want one per distinct path (%d)", snap.KernelCacheMisses, len(distinct))
		}
		if got := snap.KernelCacheHits + snap.KernelCacheMisses; got != int64(keyed) {
			t.Errorf("%d memo lookups, want %d", got, keyed)
		}
		solved := 0
		for _, sp := range eng.Traces().Snapshot()[0].Spans {
			if sp.Name == "solve" {
				n, err := strconv.Atoi(sp.Attr("paths"))
				if err != nil {
					t.Fatal(err)
				}
				solved += n
			}
		}
		if want := len(distinct) + overridden; solved != want {
			t.Errorf("solved %d paths, want %d (%d distinct steady-state + %d overridden)",
				solved, want, len(distinct), overridden)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaderCancelDoesNotPoisonFollowers: a single-flight leader whose own
// context ends while it waits for a worker must not hand its
// context.Canceled to followers whose contexts are still live — a scalar
// follower and a batch joiner both retry and get the result.
func TestLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	eng := New(Config{Workers: 1})
	eng.sem <- struct{}{} // hold the only worker token
	s := spec.TypicalSpec()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.Evaluate(leaderCtx, s)
		leaderErr <- err
	}()
	waitFor(t, "the leader to register", func() bool { return eng.MetricsSnapshot().CacheMisses == 1 })

	type outcome struct {
		res *Result
		err error
	}
	scalar, batch := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		res, err := eng.Evaluate(context.Background(), s)
		scalar <- outcome{res, err}
	}()
	go func() {
		res, err := eng.EvaluateBatch(context.Background(), []*spec.Spec{s})
		if err != nil {
			batch <- outcome{nil, err}
			return
		}
		batch <- outcome{res[0], nil}
	}()
	waitFor(t, "both followers to join", func() bool { return eng.MetricsSnapshot().Deduped == 2 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	<-eng.sem // release the worker token
	for name, ch := range map[string]chan outcome{"scalar": scalar, "batch": batch} {
		o := <-ch
		if o.err != nil {
			t.Fatalf("%s follower inherited the leader's cancellation: %v", name, o.err)
		}
		if o.res == nil || len(o.res.Paths) != 10 {
			t.Errorf("%s follower got %+v", name, o.res)
		}
	}
	if n := eng.MetricsSnapshot().Solves; n != 1 {
		t.Errorf("%d solves, want 1 (the followers share one retry)", n)
	}
}
