package wirelesshart

// One benchmark per paper artifact: each bench regenerates the data behind
// the corresponding table or figure (see DESIGN.md's per-experiment index
// and EXPERIMENTS.md for paper-vs-measured values). Run with
//
//	go test -bench=. -benchmem
//
// The reported ns/op measures the full regeneration cost of each artifact.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/engine"
	"wirelesshart/internal/experiments"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

func benchErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig4PathModelIs1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig4()
		benchErr(b, err)
	}
}

func BenchmarkFig5PathModelIs2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig5()
		benchErr(b, err)
	}
}

func BenchmarkFig6TransientGoal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig6()
		benchErr(b, err)
	}
}

func BenchmarkFig7DelayDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig7()
		benchErr(b, err)
	}
}

func BenchmarkFig8ReachabilityVsAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig8()
		benchErr(b, err)
	}
}

func BenchmarkFig9DelayVsAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig9()
		benchErr(b, err)
	}
}

func BenchmarkTable1AvailabilitySweep(b *testing.B) {
	// Table I shares Fig. 8's sweep and adds the expected delays.
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig8()
		benchErr(b, err)
	}
}

func BenchmarkFig10HopCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig10()
		benchErr(b, err)
	}
}

func BenchmarkFig13NetworkReachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig13(experiments.Fig13Avails)
		benchErr(b, err)
	}
}

func BenchmarkFig14OverallDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig14()
		benchErr(b, err)
	}
}

func BenchmarkFig15ExpectedDelays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.ComputeFig15(false)
		benchErr(b, err)
	}
}

func BenchmarkTable2Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeTab2()
		benchErr(b, err)
	}
}

func BenchmarkFig16Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ComputeFig15(false); err != nil {
			b.Fatal(err)
		}
		if _, _, err := experiments.ComputeFig15(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17LinkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig17()
		benchErr(b, err)
	}
}

func BenchmarkTable3RandomFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeTab3()
		benchErr(b, err)
	}
}

func BenchmarkFig18ReportingInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig18()
		benchErr(b, err)
	}
}

func BenchmarkFig19FastControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeFig19(experiments.Fig13Avails)
		benchErr(b, err)
	}
}

func BenchmarkTable4Prediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeTab4()
		benchErr(b, err)
	}
}

func BenchmarkXValDESvsAnalytic(b *testing.B) {
	// Scaled-down interval count so the bench finishes quickly; the
	// experiment runner uses 20000 intervals.
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeXVal(500, 101)
		benchErr(b, err)
	}
}

func BenchmarkCtrlLoopStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeCtrl(500)
		benchErr(b, err)
	}
}

// Ablation benches for the design choices called out in DESIGN.md.

func BenchmarkAblationScheduleOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeOpt()
		benchErr(b, err)
	}
}

func BenchmarkAblationGilbertVsHopping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeHop(2000, 201)
		benchErr(b, err)
	}
}

func BenchmarkTTLSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeTTL()
		benchErr(b, err)
	}
}

func BenchmarkPlantNetworkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputePlant(10, 10, 424242)
		benchErr(b, err)
	}
}

func BenchmarkRoundTripDESvsAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeRTrip(500, 606)
		benchErr(b, err)
	}
}

func BenchmarkInhomogeneousLinks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeInhomo(515151)
		benchErr(b, err)
	}
}

func BenchmarkMultiChannelSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComputeMultiChannel()
		benchErr(b, err)
	}
}

// BenchmarkPathModelScaling verifies the paper's O(Is*Fs*n) complexity
// claim empirically: solve cost grows linearly in the reporting interval.
func BenchmarkPathModelScaling(b *testing.B) {
	for _, is := range []int{1, 2, 4, 8, 16} {
		is := is
		b.Run(fmt.Sprintf("Is=%d", is), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := ExamplePath([]int{3, 6, 7}, 7, is, 0.75)
				benchErr(b, err)
			}
		})
	}
}

// Library-level micro-benchmarks: the cost of the core operations a
// downstream user calls.

func BenchmarkAnalyzeTypicalNetwork(b *testing.B) {
	n, err := Typical()
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := n.Analyze()
		benchErr(b, err)
	}
}

func BenchmarkSimulateTypicalNetwork1kIntervals(b *testing.B) {
	n, err := Typical()
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := n.Simulate(1000, int64(i))
		benchErr(b, err)
	}
}

func BenchmarkExamplePathSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := ExamplePath([]int{3, 6, 7}, 7, 4, 0.75)
		benchErr(b, err)
	}
}

func BenchmarkPredictAttachment(b *testing.B) {
	n, err := Typical()
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := n.PredictAttachment("n4", 7)
		benchErr(b, err)
	}
}

// Evaluation-engine benches: the cost of a cold DTMC solve versus a cache
// hit versus eight goroutines racing on the same scenario (single-flight).
// The cache-hit path must come in at least an order of magnitude under the
// cold solve.

func BenchmarkEngineColdSolve(b *testing.B) {
	ctx := context.Background()
	s := spec.TypicalSpec()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Config{})
		_, err := eng.Evaluate(ctx, s)
		benchErr(b, err)
	}
}

func BenchmarkEngineCacheHit(b *testing.B) {
	ctx := context.Background()
	s := spec.TypicalSpec()
	eng := engine.New(engine.Config{})
	_, err := eng.Evaluate(ctx, s)
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := eng.Evaluate(ctx, s)
		benchErr(b, err)
	}
}

// BenchmarkHTTPNetworkCacheHit is a /v1/network request through the
// engine's handler whose result is cached, resent byte for byte: body
// read and hash, body-index and cache lookups and the response write,
// without a network transport.
func BenchmarkHTTPNetworkCacheHit(b *testing.B) {
	benchCacheHit(b, "/v1/network", map[string]any{"scenario": spec.TypicalSpec()}, false)
}

// BenchmarkHTTPEvaluateCacheHit is BenchmarkHTTPNetworkCacheHit for one
// path on /v1/evaluate, whose response is encoded on every request.
func BenchmarkHTTPEvaluateCacheHit(b *testing.B) {
	benchCacheHit(b, "/v1/evaluate", map[string]any{"scenario": spec.TypicalSpec(), "source": "n10"}, false)
}

// BenchmarkHTTPNetworkCacheHitNewBody is a /v1/network request for a
// cached scenario whose body differs from every earlier one in its
// trailing whitespace, so the body index misses: request decode, key,
// cache lookup and the response write.
func BenchmarkHTTPNetworkCacheHitNewBody(b *testing.B) {
	benchCacheHit(b, "/v1/network", map[string]any{"scenario": spec.TypicalSpec()}, true)
}

// benchCacheHit posts req to path once to solve and cache it, then times
// b.N more posts. With newBody, the i-th post appends i's binary digits
// to the body as spaces and newlines.
func benchCacheHit(b *testing.B, path string, req any, newBody bool) {
	body, err := json.Marshal(req)
	benchErr(b, err)
	h := engine.NewHandler(engine.New(engine.Config{}), 30*time.Second)
	n := len(body)
	serve := func(i int) {
		if newBody {
			var digits [64]byte
			body = body[:n]
			for _, d := range strconv.AppendInt(digits[:0], int64(i), 2) {
				body = append(body, " \n"[d-'0'])
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve(0) // warm-up: solve and cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		serve(i)
	}
}

// BenchmarkHTTPNetworkColdSolve is a /v1/network request that misses the
// result cache: a distinct generated network (gen seed 1) per op through
// the engine's handler. Decode, key, build, solve, measures, result
// assembly and the first encoding of the result, without a network
// transport.
func BenchmarkHTTPNetworkColdSolve(b *testing.B) {
	bodies := make([][]byte, b.N)
	for i := range bodies {
		g, err := gen.Generate(1, i, gen.DefaultParams())
		benchErr(b, err)
		bodies[i], err = json.Marshal(map[string]any{"scenario": g.Spec})
		benchErr(b, err)
	}
	h := engine.NewHandler(engine.New(engine.Config{}), 30*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/network", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkHTTPNetworkForwarded is a /v1/network request to a replica of
// a two-replica ring for a distinct generated network (gen seed 1) that
// the other replica owns, served over a loopback HTTP server. The
// request's replica decodes, keys and forwards; the owner decodes, keys,
// builds, solves and encodes; the request's replica then parses the
// owner's body, caches it and answers with it.
func BenchmarkHTTPNetworkForwarded(b *testing.B) {
	ringA, err := cluster.NewRing("a", []cluster.Member{{ID: "a"}, {ID: "b"}}, 0)
	benchErr(b, err)
	owner := httptest.NewServer(engine.NewHandler(engine.New(engine.Config{Ring: ringA}), 30*time.Second))
	defer owner.Close()
	ringB, err := cluster.NewRing("b", []cluster.Member{{ID: "a", URL: owner.URL}, {ID: "b"}}, 0)
	benchErr(b, err)
	engB := engine.New(engine.Config{Ring: ringB})
	h := engine.NewHandler(engB, 30*time.Second)
	bodies := make([][]byte, 0, b.N)
	for i := 0; len(bodies) < b.N; i++ {
		g, err := gen.Generate(1, i, gen.DefaultParams())
		benchErr(b, err)
		key, err := engine.Key(g.Spec)
		benchErr(b, err)
		if ringB.IsOwner(key) {
			continue
		}
		body, err := json.Marshal(map[string]any{"scenario": g.Spec})
		benchErr(b, err)
		bodies = append(bodies, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/network", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	if m := engB.MetricsSnapshot(); m.PeerForwarded != int64(b.N) || m.PeerDegradedLocal != 0 {
		b.Fatalf("forwarded %d of %d requests, %d degraded", m.PeerForwarded, b.N, m.PeerDegradedLocal)
	}
}

// BenchmarkHTTPBatchFailsweep is one /v1/batch of failure sweeps per op
// through the engine's handler: generated networks (gen seed 1) with each
// of their links failed in turn over uplink slots [0, 20), as whart-fleet
// -failsweep 0-20 sends them. Decode, keys, builds, memo lookups, the
// solves of the changed paths, measures, assembly and the batch body,
// without a network transport.
//
//   - sweep: one network's whole sweep per op. The ops cycle through 32
//     networks, whose scenarios and distinct paths outnumber the 256-entry
//     result cache and path-result memo, so no op is answered by an
//     earlier op's work.
//   - interleaved16: the first 8 columns of 16 networks' sweeps per op,
//     interleaved column by column (a0, b0, ..., p0, a1, ...), so one
//     batch holds 16 intact networks. The ops cycle through 4 such
//     batches over 64 networks, whose 512 scenarios outnumber the result
//     cache.
func BenchmarkHTTPBatchFailsweep(b *testing.B) {
	sweeps := make([][]*spec.Spec, 64)
	for i := range sweeps {
		g, err := gen.Generate(1, i, gen.DefaultParams())
		benchErr(b, err)
		sweeps[i] = make([]*spec.Spec, len(g.Spec.Links))
		for l := range sweeps[i] {
			c := *g.Spec
			c.Links = append([]spec.Link(nil), g.Spec.Links...)
			c.Links[l].Failure = &spec.Failure{Kind: "window", FromSlot: 0, ToSlot: 20}
			sweeps[i][l] = &c
		}
	}
	body := func(scenarios []*spec.Spec) []byte {
		out, err := json.Marshal(map[string]any{"scenarios": scenarios})
		benchErr(b, err)
		return out
	}
	var one, interleaved [][]byte
	for _, sweep := range sweeps[:32] {
		one = append(one, body(sweep))
	}
	for n := 0; n < len(sweeps); n += 16 {
		var batch []*spec.Spec
		for col := 0; col < 8; col++ {
			for _, sweep := range sweeps[n : n+16] {
				batch = append(batch, sweep[col])
			}
		}
		interleaved = append(interleaved, body(batch))
	}
	for _, bc := range []struct {
		name   string
		bodies [][]byte
	}{{"sweep", one}, {"interleaved16", interleaved}} {
		b.Run(bc.name, func(b *testing.B) {
			h := engine.NewHandler(engine.New(engine.Config{}), 30*time.Second)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bc.bodies[i%len(bc.bodies)])))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

func BenchmarkEngineSingleFlight8(b *testing.B) {
	const goroutines = 8
	ctx := context.Background()
	s := spec.TypicalSpec()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Config{})
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, errs[g] = eng.Evaluate(ctx, s)
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			benchErr(b, err)
		}
		if solves := eng.MetricsSnapshot().Solves; solves != 1 {
			b.Fatalf("%d solves, want 1", solves)
		}
	}
}
