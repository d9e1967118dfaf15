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
	"sync"
	"testing"
	"time"

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
// engine's handler whose result is cached: request decode, key, cache
// lookup and the response write, without a network transport.
func BenchmarkHTTPNetworkCacheHit(b *testing.B) {
	body, err := json.Marshal(map[string]any{"scenario": spec.TypicalSpec()})
	benchErr(b, err)
	h := engine.NewHandler(engine.New(engine.Config{}), 30*time.Second)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/network", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm-up: solve and cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
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
		if solves := eng.Metrics().Solves(); solves != 1 {
			b.Fatalf("%d solves, want 1", solves)
		}
	}
}
