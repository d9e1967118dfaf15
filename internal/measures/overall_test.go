package measures_test

import (
	"math"
	"math/rand"
	"testing"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
)

// solvedPaths returns the solved path of every reporting source of s and
// the downlink frame its delays are measured with.
func solvedPaths(tb testing.TB, s *spec.Spec) ([]*pathmodel.Result, int) {
	tb.Helper()
	b, err := s.Build()
	if err != nil {
		tb.Fatal(err)
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*pathmodel.Result, len(na.Paths))
	for i, pa := range na.Paths {
		out[i] = pa.Result
	}
	return out, b.Analyzer.Fdown()
}

// overallDelayByAdd is OverallDelay as it was written over a map: every
// path's scaled cycle probabilities added point by point, path by path.
func overallDelayByAdd(results []*pathmodel.Result, fdown int) map[float64]float64 {
	out := map[float64]float64{}
	w := 1 / float64(len(results))
	for _, res := range results {
		for i, p := range res.CycleProbs {
			out[measures.DelayMS(res.GoalAges[i], i+1, fdown)] += p * w
		}
	}
	return out
}

// TestOverallDelayMatchesAddLoop: merging the paths' ascending delay
// lists gives the map-built Gamma bit for bit, on the typical network (at
// its own Is and at Is 8192), 64 generated networks and nine paths that
// share every delay, each at its own downlink frame and at two others.
func TestOverallDelayMatchesAddLoop(t *testing.T) {
	long := spec.TypicalSpec()
	long.ReportingInterval = 8192
	networks := []*spec.Spec{spec.TypicalSpec(), long}
	n := 64
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		g, err := gen.Generate(7, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		networks = append(networks, g.Spec)
	}
	type network struct {
		results []*pathmodel.Result
		fdown   int
	}
	var cases []network
	for _, s := range networks {
		results, fdown := solvedPaths(t, s)
		cases = append(cases, network{results, fdown})
	}
	// Nine paths with one geometry and random cycle probabilities: every
	// delay is shared, so only summing in path order gives the map's bits.
	rng := rand.New(rand.NewSource(1))
	var shared []*pathmodel.Result
	for p := 0; p < 9; p++ {
		res := &pathmodel.Result{GoalAges: []int{3, 8, 13, 18}, CycleProbs: make([]float64, 4)}
		for i := range res.CycleProbs {
			res.CycleProbs[i] = rng.Float64() / 4
		}
		shared = append(shared, res)
	}
	cases = append(cases, network{shared, 5})
	for k, c := range cases {
		results, own := c.results, c.fdown
		for _, fdown := range []int{own, 0, 7} {
			got, err := measures.OverallDelay(results, fdown)
			if err != nil {
				t.Fatal(err)
			}
			want := overallDelayByAdd(results, fdown)
			xs, ps := got.Points()
			if len(xs) != len(want) {
				t.Fatalf("network %d, fdown %d: %d support points, want %d", k, fdown, len(xs), len(want))
			}
			for i, x := range xs {
				if i > 0 && !(xs[i-1] < x) {
					t.Fatalf("network %d, fdown %d: support not ascending at %d: %v then %v", k, fdown, i, xs[i-1], x)
				}
				if w, ok := want[x]; !ok || math.Float64bits(ps[i]) != math.Float64bits(w) {
					t.Fatalf("network %d, fdown %d, delay %v: %v, want %v (present %v)", k, fdown, x, ps[i], w, ok)
				}
			}
		}
	}
}

// BenchmarkOverallDelay builds Gamma (Fig. 14) from the solved paths of
// the typical network (10 paths) and of a generated one (gen seed 1,
// index 0: the size of a failure-sweep column in the benchmark harness).
func BenchmarkOverallDelay(b *testing.B) {
	g, err := gen.Generate(1, 0, gen.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		spec *spec.Spec
	}{{"typical", spec.TypicalSpec()}, {"gen", g.Spec}} {
		b.Run(bc.name, func(b *testing.B) {
			results, fdown := solvedPaths(b, bc.spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := measures.OverallDelay(results, fdown); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDelayDistribution builds the normalized delay distribution
// (Eq. 8) of every path of the typical network.
func BenchmarkDelayDistribution(b *testing.B) {
	results, fdown := solvedPaths(b, spec.TypicalSpec())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			if _, err := measures.DelayDistribution(res, fdown); err != nil {
				b.Fatal(err)
			}
		}
	}
}
