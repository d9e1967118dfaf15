package measures

import (
	"errors"
	"math"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/stats"
)

// solveHomogeneous builds and solves an n-hop path with consecutive slots
// starting at startSlot, homogeneous steady-state availability, frame fup
// and interval is.
func solveHomogeneous(t *testing.T, hops, startSlot, fup, is int, avail float64) *pathmodel.Result {
	t.Helper()
	lm, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, hops)
	links := make([]link.Availability, hops)
	for h := 0; h < hops; h++ {
		slots[h] = startSlot + h
		links[h] = lm.Steady()
	}
	m, err := pathmodel.Build(pathmodel.Config{Slots: slots, Fup: fup, Is: is, Links: links})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// examplePathResult solves the Section V-A example: 3 hops in slots 3,6,7
// of a 7-slot frame, Is=4, pi(up)=0.75.
func examplePathResult(t *testing.T) *pathmodel.Result {
	t.Helper()
	lm, err := link.FromAvailability(0.75, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pathmodel.Build(pathmodel.Config{
		Slots: []int{3, 6, 7},
		Fup:   7,
		Is:    4,
		Links: []link.Availability{lm.Steady(), lm.Steady(), lm.Steady()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExpectedIntervalsToFirstLoss(t *testing.T) {
	// Section V: E[N] = 1/(1-R); with the example path's R = 0.9624 a
	// loss occurs about every 26.6 reporting intervals.
	e, err := ExpectedIntervalsToFirstLoss(0.9624)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1/0.0376) > 1e-9 {
		t.Errorf("E[N] = %v, want %v", e, 1/0.0376)
	}
	if _, err := ExpectedIntervalsToFirstLoss(1); err == nil {
		t.Error("R=1 should error")
	}
	if _, err := ExpectedIntervalsToFirstLoss(1.5); err == nil {
		t.Error("R>1 should error")
	}
	if _, err := ExpectedIntervalsToFirstLoss(-0.1); err == nil {
		t.Error("R<0 should error")
	}
}

func TestDelayMS(t *testing.T) {
	// Example path: arrivals at ages 7, 14, 21, 28 with Fdown = 7 map to
	// 70, 210, 350, 490 ms (Fig. 7's support).
	want := []float64{70, 210, 350, 490}
	ages := []int{7, 14, 21, 28}
	for i := range ages {
		if got := DelayMS(ages[i], i+1, 7); got != want[i] {
			t.Errorf("DelayMS(%d, %d, 7) = %v, want %v", ages[i], i+1, got, want[i])
		}
	}
}

func TestDelayDistributionFig7(t *testing.T) {
	res := examplePathResult(t)
	pmf, err := DelayDistribution(res, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmf.Total()-1) > 1e-12 {
		t.Errorf("normalized distribution total = %v", pmf.Total())
	}
	// tau(70) = 0.4219/0.9624 = 0.4384.
	if got := pmf.Prob(70); math.Abs(got-0.4219/0.9624) > 1e-4 {
		t.Errorf("tau(70) = %v, want %v", got, 0.4219/0.9624)
	}
	if _, err := DelayDistribution(res, -1); err == nil {
		t.Error("negative fdown should error")
	}
}

func TestExpectedDelayFig7(t *testing.T) {
	// Paper: E[tau] = 190.8 ms for the example path.
	res := examplePathResult(t)
	e, err := ExpectedDelayMS(res, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-190.8) > 0.1 {
		t.Errorf("E[tau] = %v, want 190.8", e)
	}
}

func TestTableIAvailabilitySweep(t *testing.T) {
	// Table I: reachability (%) and expected delay (ms) for the example
	// path under four availabilities.
	tests := []struct {
		avail     float64
		wantReach float64 // percent
		wantDelay float64 // ms
	}{
		{avail: 0.774, wantReach: 97.37, wantDelay: 179},
		{avail: 0.83, wantReach: 99.07, wantDelay: 151},
		// The 0.903 row computes to 114.5 ms from the paper's own cycle
		// probabilities; Table I prints 113 (see EXPERIMENTS.md).
		{avail: 0.903, wantReach: 99.89, wantDelay: 114.5},
		{avail: 0.948, wantReach: 99.99, wantDelay: 93},
	}
	for _, tt := range tests {
		lm, err := link.FromAvailability(tt.avail, link.DefaultRecoveryProb)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pathmodel.Build(pathmodel.Config{
			Slots: []int{3, 6, 7},
			Fup:   7,
			Is:    4,
			Links: []link.Availability{lm.Steady(), lm.Steady(), lm.Steady()},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got := Reachability(res) * 100; math.Abs(got-tt.wantReach) > 0.02 {
			t.Errorf("avail %v: R = %v%%, want %v%%", tt.avail, got, tt.wantReach)
		}
		e, err := ExpectedDelayMS(res, 7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e-tt.wantDelay) > 1 {
			t.Errorf("avail %v: E[tau] = %v ms, want %v ms", tt.avail, e, tt.wantDelay)
		}
	}
}

func TestUtilizationExamplePath(t *testing.T) {
	// Paper Section V-A: U_p = 0.14 for the example path ("only occupies
	// 3 slots in the 7-slot schedule").
	res := examplePathResult(t)
	if got := UtilizationClosedForm(res, false); math.Abs(got-0.14) > 0.002 {
		t.Errorf("closed-form U_p = %v, want ~0.14", got)
	}
	exact := UtilizationExact(res)
	if math.Abs(exact-0.14) > 0.01 {
		t.Errorf("exact U_p = %v, want ~0.14", exact)
	}
	// The literal Eq. (10) counts one extra slot per message.
	literal := UtilizationClosedForm(res, true)
	if literal <= UtilizationClosedForm(res, false) {
		t.Error("literal Eq. 10 should exceed the corrected form")
	}
}

func TestUtilizationExactBelowClosedForm(t *testing.T) {
	// The corrected closed form assumes a discarded message progressed
	// n-1 hops; the exact count is never higher.
	for _, avail := range []float64{0.693, 0.774, 0.83, 0.903} {
		res := solveHomogeneous(t, 3, 1, 10, 4, avail)
		exact := UtilizationExact(res)
		closed := UtilizationClosedForm(res, false)
		if exact > closed+1e-12 {
			t.Errorf("avail %v: exact %v above closed form %v", avail, exact, closed)
		}
	}
}

func TestNetworkUtilization(t *testing.T) {
	if got := NetworkUtilization([]float64{0.1, 0.2, 0.3}); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("NetworkUtilization = %v, want 0.6", got)
	}
	if got := NetworkUtilization(nil); got != 0 {
		t.Errorf("empty NetworkUtilization = %v, want 0", got)
	}
}

func TestOverallDelayAveragesPaths(t *testing.T) {
	// Two identical paths: the overall distribution equals each raw one.
	a := solveHomogeneous(t, 2, 1, 5, 4, 0.83)
	b := solveHomogeneous(t, 2, 1, 5, 4, 0.83)
	overall, err := OverallDelay([]*pathmodel.Result{a, b}, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw := rawDelays(a, 5)
	for _, d := range raw.Support() {
		if math.Abs(overall.Prob(d)-raw.Prob(d)) > 1e-12 {
			t.Errorf("delay %v: overall %v vs raw %v", d, overall.Prob(d), raw.Prob(d))
		}
	}
	// Total mass equals the average reachability (< 1).
	if math.Abs(overall.Total()-a.Reachability()) > 1e-12 {
		t.Errorf("overall mass %v, want %v", overall.Total(), a.Reachability())
	}
	if _, err := OverallDelay(nil, 5); err == nil {
		t.Error("empty path list should error")
	}
}

// overallDelayByMerge is OverallDelay as it was first written: each
// path's raw distribution scaled by 1/n and merged into the sum.
func overallDelayByMerge(t *testing.T, results []*pathmodel.Result, fdown int) *stats.PMF {
	t.Helper()
	out := stats.NewPMF()
	w := 1 / float64(len(results))
	for _, res := range results {
		out.Merge(rawDelays(res, fdown).Scale(w))
	}
	return out
}

// TestOverallDelayMatchesMerge: adding each path's scaled cycle
// probabilities straight into Gamma gives the merged scaled raw
// distributions bit for bit, over paths that share and that split support
// points, at several downlink frames.
func TestOverallDelayMatchesMerge(t *testing.T) {
	var results []*pathmodel.Result
	for _, c := range []struct {
		hops, start, fup, is int
		avail                float64
	}{
		{2, 1, 5, 4, 0.83}, {1, 5, 5, 4, 0.9}, {3, 2, 7, 4, 0.75},
		{2, 3, 7, 8, 0.61}, {1, 1, 7, 4, 0.99}, {4, 1, 9, 3, 0.5},
	} {
		results = append(results, solveHomogeneous(t, c.hops, c.start, c.fup, c.is, c.avail))
	}
	for n := 1; n <= len(results); n++ {
		for _, fdown := range []int{0, 5, 7, 13} {
			got, err := OverallDelay(results[:n], fdown)
			if err != nil {
				t.Fatal(err)
			}
			want := overallDelayByMerge(t, results[:n], fdown)
			if got.Len() != want.Len() {
				t.Fatalf("%d paths, fdown %d: %d support points, want %d", n, fdown, got.Len(), want.Len())
			}
			for _, d := range want.Support() {
				if math.Float64bits(got.Prob(d)) != math.Float64bits(want.Prob(d)) {
					t.Errorf("%d paths, fdown %d, delay %v: %v, want %v", n, fdown, d, got.Prob(d), want.Prob(d))
				}
			}
		}
	}
	if _, err := OverallDelay(results, -1); err == nil {
		t.Error("negative downlink frame accepted")
	}
}

func TestOverallMeanDelay(t *testing.T) {
	// Two paths whose individual expected delays straddle the mean.
	a := solveHomogeneous(t, 1, 1, 5, 4, 0.9) // fast path
	b := solveHomogeneous(t, 1, 5, 5, 4, 0.9) // same but last slot 5
	ea, err := ExpectedDelayMS(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ExpectedDelayMS(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := OverallMeanDelayMS([]float64{ea, eb})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-(ea+eb)/2) > 1e-12 {
		t.Errorf("OverallMeanDelayMS = %v, want %v", mean, (ea+eb)/2)
	}
	if _, err := OverallMeanDelayMS(nil); !errors.Is(err, ErrNoDelivery) {
		t.Errorf("no delivering path: err %v, want ErrNoDelivery", err)
	}
}

func TestMinReportingInterval(t *testing.T) {
	// Fig. 18's 1-hop path at pi(up) = 0.903: Is = 1 gives 0.903, Is = 2
	// gives 0.9906, Is = 3 gives 0.99909... So target 0.99 needs Is = 2,
	// target 0.999 needs Is = 3.
	is, err := MinReportingInterval(1, 0.903, 0.99, 10)
	if err != nil || is != 2 {
		t.Errorf("target 0.99: Is = %d, %v, want 2", is, err)
	}
	is, err = MinReportingInterval(1, 0.903, 0.999, 10)
	if err != nil || is != 3 {
		t.Errorf("target 0.999: Is = %d, %v, want 3", is, err)
	}
	// 3-hop at 0.83 with target 0.99 needs Is = 4 (Fig. 10: R(4 cycles)
	// = 0.9907; at Is = 3, R = 0.9812-ish... actually R with 3 cycles =
	// ps^3(1+3pf+6pf^2) = 0.977).
	is, err = MinReportingInterval(3, 0.83, 0.99, 10)
	if err != nil || is != 4 {
		t.Errorf("3-hop target 0.99: Is = %d, %v, want 4", is, err)
	}
	// Perfect target with lossy links not reached within a small budget
	// (beyond ~16 cycles float64 rounds R to exactly 1).
	if _, err := MinReportingInterval(1, 0.9, 1, 5); err == nil {
		t.Error("target 1 with lossy links should error within Is <= 5")
	}
	if _, err := MinReportingInterval(1, 0.9, 0, 10); err == nil {
		t.Error("target 0 should error")
	}
	if _, err := MinReportingInterval(1, 0.9, 0.99, 0); err == nil {
		t.Error("maxIs 0 should error")
	}
	// Perfect links: Is = 1 suffices for any target < 1... and equals 1.
	is, err = MinReportingInterval(2, 1, 1, 10)
	if err != nil || is != 1 {
		t.Errorf("perfect links: Is = %d, %v, want 1", is, err)
	}
}

func TestComposeCyclesTable4(t *testing.T) {
	// Table IV, path alpha: peer g3 (1-hop, p_fl = 0.089) composed with
	// existing path 1 (2 hops, pi(up) from BER 2e-4), Is = 4:
	// gc = [0.6274, 0.2694, 0.0784, 0.0193], R = 99.46%.
	peerModel, err := link.New(0.089, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	peerRes := solveOneHop(t, peerModel)
	existRes := solveHomogeneous(t, 2, 1, 5, 4, 0.830425)

	gc, err := ComposeCycles(CycleFunction(peerRes), CycleFunction(existRes), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6274, 0.2694, 0.0784, 0.0193}
	if len(gc) != 4 {
		t.Fatalf("gc = %v", gc)
	}
	for i, w := range want {
		if math.Abs(gc[i]-w) > 2e-4 {
			t.Errorf("gc[%d] = %v, want %v", i, gc[i], w)
		}
	}
	if r := CycleReachability(gc); math.Abs(r-0.9946) > 5e-4 {
		t.Errorf("R_alpha = %v, want 0.9946", r)
	}
}

func TestComposeCyclesTable4Beta(t *testing.T) {
	// Path beta: peer g4 (p_fl = 0.237) composed with 1-hop existing path:
	// gc = [0.6573, 0.2485, 0.0707, 0.0180], R = 99.45%.
	peerModel, err := link.New(0.237, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	peerRes := solveOneHop(t, peerModel)
	existRes := solveHomogeneous(t, 1, 1, 5, 4, 0.830425)
	gc, err := ComposeCycles(CycleFunction(peerRes), CycleFunction(existRes), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6573, 0.2485, 0.0707, 0.0180}
	for i, w := range want {
		if math.Abs(gc[i]-w) > 2e-4 {
			t.Errorf("gc[%d] = %v, want %v", i, gc[i], w)
		}
	}
	if r := CycleReachability(gc); math.Abs(r-0.9945) > 5e-4 {
		t.Errorf("R_beta = %v, want 0.9945", r)
	}
}

func solveOneHop(t *testing.T, lm link.Model) *pathmodel.Result {
	t.Helper()
	m, err := pathmodel.Build(pathmodel.Config{
		Slots: []int{1},
		Fup:   5,
		Is:    4,
		Links: []link.Availability{lm.Steady()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComposeCyclesMatchesDirectModel(t *testing.T) {
	// Composing a 1-hop peer with a 2-hop existing path must match the
	// directly built 3-hop model when all links are homogeneous and
	// steady (cycles are then independent, the paper's assumption).
	const avail = 0.83
	peer := solveOneHop(t, mustModel(t, avail))
	exist := solveHomogeneous(t, 2, 1, 5, 4, avail)
	composed, err := ComposeCycles(CycleFunction(peer), CycleFunction(exist), 4)
	if err != nil {
		t.Fatal(err)
	}
	direct := solveHomogeneous(t, 3, 1, 5, 4, avail)
	for i := range composed {
		if math.Abs(composed[i]-direct.CycleProbs[i]) > 1e-10 {
			t.Errorf("cycle %d: composed %v vs direct %v", i+1, composed[i], direct.CycleProbs[i])
		}
	}
}

func mustModel(t *testing.T, avail float64) link.Model {
	t.Helper()
	lm, err := link.FromAvailability(avail, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return lm
}

func TestComposeCyclesValidation(t *testing.T) {
	if _, err := ComposeCycles(nil, []float64{1}, 4); err == nil {
		t.Error("empty peer should error")
	}
	if _, err := ComposeCycles([]float64{1}, nil, 4); err == nil {
		t.Error("empty existing should error")
	}
	if _, err := ComposeCycles([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("zero interval should error")
	}
}

func TestCycleFunctionCopies(t *testing.T) {
	res := examplePathResult(t)
	g := CycleFunction(res)
	g[0] = 99
	if res.CycleProbs[0] == 99 {
		t.Error("CycleFunction must return a copy")
	}
}
