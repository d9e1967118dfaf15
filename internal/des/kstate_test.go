package des

import (
	"math"
	"math/rand"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
)

// burstyK3 returns a sticky 3-state fading model: deep fade, shadowed,
// clear.
func burstyK3(t *testing.T) *link.KState {
	t.Helper()
	m, err := link.NewKState([][]float64{
		{0.85, 0.10, 0.05},
		{0.10, 0.80, 0.10},
		{0.05, 0.15, 0.80},
	}, []float64{0.05, 0.60, 0.98})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// marginalFrom returns the analytic per-slot success probability of m's
// chain started in the distribution init: init evolved through slot
// transitions of m's matrix, weighted by the per-state success
// probabilities.
func marginalFrom(m *link.KState, init []float64) func(slot int) float64 {
	trans, succ := m.TransitionMatrix(), m.SuccessProbs()
	return func(slot int) float64 {
		cur := append([]float64(nil), init...)
		for s := 0; s < slot; s++ {
			next := make([]float64, len(cur))
			for i, p := range cur {
				for j, q := range trans[i] {
					next[j] += p * q
				}
			}
			cur = next
		}
		up := 0.0
		for i, p := range cur {
			up += p * succ[i]
		}
		return up
	}
}

// TestKStateProcessMatchesAnalyticMarginal is the acceptance criterion's
// DES cross-check at the link layer: the empirical per-slot success
// fraction of the simulated k=3 chain, restarted from a fixed state every
// interval, must track the analytic marginal of the chain within a few
// binomial standard errors at every slot.
func TestKStateProcessMatchesAnalyticMarginal(t *testing.T) {
	m := burstyK3(t)
	init := []float64{1, 0, 0}
	marginal := marginalFrom(m, init)
	proc := &KStateProcess{trans: m.TransitionMatrix(), succ: m.SuccessProbs(), init: init}
	const intervals = 200000
	const slots = 12
	rng := rand.New(rand.NewSource(11))
	up := make([]int, slots+1)
	for n := 0; n < intervals; n++ {
		proc.Reset(rng)
		for s := 1; s <= slots; s++ {
			if proc.Up(s, rng) {
				up[s]++
			}
		}
	}
	for s := 1; s <= slots; s++ {
		want := marginal(s)
		got := float64(up[s]) / intervals
		se := math.Sqrt(want * (1 - want) / intervals)
		if math.Abs(got-want) > 4*se+1e-9 {
			t.Errorf("slot %d: empirical %v, analytic %v (4se = %v)", s, got, want, 4*se)
		}
	}
}

// TestKStateSteadyEmpiricalAvailability checks the stationary start: the
// overall success fraction must match SteadyUp.
func TestKStateSteadyEmpiricalAvailability(t *testing.T) {
	m := burstyK3(t)
	proc := NewKStateSteady(m)
	rng := rand.New(rand.NewSource(5))
	const intervals, slots = 20000, 10
	hits := 0
	for n := 0; n < intervals; n++ {
		proc.Reset(rng)
		for s := 1; s <= slots; s++ {
			if proc.Up(s, rng) {
				hits++
			}
		}
	}
	got := float64(hits) / float64(intervals*slots)
	want := m.SteadyUp()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical steady availability %v, want %v", got, want)
	}
}

// TestNewProcessSteadyDispatch checks the type dispatch: classic models
// get the Gilbert chain, k-state models the fading chain.
func TestNewProcessSteadyDispatch(t *testing.T) {
	m, err := link.New(0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewProcessSteady(m).(*GilbertProcess); !ok {
		t.Error("classic model did not dispatch to GilbertProcess")
	}
	if _, ok := NewProcessSteady(burstyK3(t)).(*KStateProcess); !ok {
		t.Error("k-state model did not dispatch to KStateProcess")
	}
}

// TestRunKStatePathMatchesAnalytic simulates a 2-hop path on k=3 fading
// links and compares the reachability against the analytic path model
// bound to the chains' steady marginals. The analytic model assumes
// per-slot independence, so this pin uses a fast-mixing chain (second
// eigenvalue 0.01: attempts one frame apart are effectively independent);
// the systematic deviation a sticky chain induces is quantified by the
// "fading" experiment, not asserted away here.
func TestRunKStatePathMatchesAnalytic(t *testing.T) {
	m, err := link.NewKState([][]float64{
		{0.34, 0.33, 0.33},
		{0.33, 0.34, 0.33},
		{0.33, 0.33, 0.34},
	}, []float64{0.05, 0.60, 0.98})
	if err != nil {
		t.Fatal(err)
	}
	net, sched, src := chainNetwork(t, 2, 8)
	res, err := Run(Config{
		Net: net, Sched: sched, Is: 4, Intervals: 60000, Seed: 13, Fdown: -1,
		Links: uniformGilbert(net, func() LinkProcess { return NewKStateSteady(m) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.PathBySource(src)
	if !ok {
		t.Fatal("path missing")
	}

	slots := sched.SlotsForSource(src)
	st, err := pathmodel.BuildStructure(slots, sched.Fup(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := st.Bind([]link.Availability{m.Steady(), m.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := bound.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := p.ReachabilityCI()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(p.Reachability() - analytic.Reachability()); d > math.Max(4*ci, 0.01) {
		t.Errorf("simulated R = %v +- %v, analytic %v", p.Reachability(), ci, analytic.Reachability())
	}
}
