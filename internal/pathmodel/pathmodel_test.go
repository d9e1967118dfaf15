package pathmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wirelesshart/internal/link"
	"wirelesshart/internal/stats"
)

// examplePath returns the Section V-A configuration: 3 hops in slots
// 3, 6, 7 of a 7-slot frame, homogeneous steady-state links.
func examplePath(t *testing.T, avail float64, is int) Config {
	t.Helper()
	m, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Slots: []int{3, 6, 7},
		Fup:   7,
		Is:    is,
		Links: []link.Availability{m.Steady(), m.Steady(), m.Steady()},
	}
}

func TestConfigValidation(t *testing.T) {
	m, _ := link.FromAvailability(0.75, 0.9)
	steady := m.Steady()
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "no hops", cfg: Config{Fup: 7, Is: 1}},
		{name: "zero frame", cfg: Config{Slots: []int{1}, Fup: 0, Is: 1, Links: []link.Availability{steady}}},
		{name: "zero interval", cfg: Config{Slots: []int{1}, Fup: 7, Is: 0, Links: []link.Availability{steady}}},
		{name: "link count mismatch", cfg: Config{Slots: []int{1, 2}, Fup: 7, Is: 1, Links: []link.Availability{steady}}},
		{name: "slot beyond frame", cfg: Config{Slots: []int{8}, Fup: 7, Is: 1, Links: []link.Availability{steady}}},
		{name: "slot zero", cfg: Config{Slots: []int{0}, Fup: 7, Is: 1, Links: []link.Availability{steady}}},
		{name: "non-increasing slots", cfg: Config{Slots: []int{3, 3}, Fup: 7, Is: 1, Links: []link.Availability{steady, steady}}},
		{name: "nil link", cfg: Config{Slots: []int{1}, Fup: 7, Is: 1, Links: []link.Availability{nil}}},
		{name: "TTL negative", cfg: Config{Slots: []int{1}, Fup: 7, Is: 1, TTL: -1, Links: []link.Availability{steady}}},
		{name: "TTL beyond horizon", cfg: Config{Slots: []int{1}, Fup: 7, Is: 1, TTL: 8, Links: []link.Availability{steady}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.cfg); err == nil {
				t.Error("Build should reject invalid config")
			}
		})
	}
}

func TestBuildFig4Structure(t *testing.T) {
	// Is = 1 on the example path: one goal state R7 plus Discard, states
	// named with the paper's age tuples.
	m, err := Build(examplePath(t, 0.75, 1))
	if err != nil {
		t.Fatal(err)
	}
	if goals := m.GoalAges(); len(goals) != 1 {
		t.Fatalf("goals = %d, want 1", len(goals))
	}
	if ages := m.GoalAges(); ages[0] != 7 {
		t.Errorf("goal age = %d, want 7", ages[0])
	}
	c := m.chain()
	labels := map[string]bool{}
	for id := 0; id < m.NumStates(); id++ {
		labels[c.label(id)] = true
	}
	if !labels["R7"] {
		t.Error("missing state R7")
	}
	if !labels["Discard"] {
		t.Error("missing Discard state")
	}
	// Paper Fig. 4 states: (t,-,-) for t=0..6 (we start ages at 0),
	// (3,3,-)... the success chain after slot 3, and the two full tuples.
	for _, want := range []string{"(0,-,-)", "(3,3,-)", "(6,6,6)"} {
		if !labels[want] {
			t.Errorf("missing state %s", want)
		}
	}
}

func TestBuildFig5GrowsLinearlyWithIs(t *testing.T) {
	// Is = 2 roughly doubles the transient state count (paper: size is
	// linear in Is).
	m1, err := Build(examplePath(t, 0.75, 1))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(examplePath(t, 0.75, 2))
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumStates() <= m1.NumStates() || m4.NumStates() <= m2.NumStates() {
		t.Errorf("state counts not growing: %d, %d, %d", m1.NumStates(), m2.NumStates(), m4.NumStates())
	}
	// O(Is*Fup*n) bound with a small constant.
	bound := func(is int) int { return 2 * is * 7 * 3 }
	if m4.NumStates() > bound(4) {
		t.Errorf("Is=4 state count %d exceeds O(Is*Fup*n) bound %d", m4.NumStates(), bound(4))
	}
}

func TestSolveFig6PaperAnchors(t *testing.T) {
	// Fig. 6: cycle probabilities 0.4219, 0.3164, 0.1582, 0.06592 and
	// R = 0.9624 for the example path at pi(up) = 0.75, Is = 4.
	m, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	if len(res.CycleProbs) != 4 {
		t.Fatalf("cycles = %d, want 4", len(res.CycleProbs))
	}
	for i, w := range want {
		if math.Abs(res.CycleProbs[i]-w) > 5e-5 {
			t.Errorf("cycle %d: %v, want %v", i+1, res.CycleProbs[i], w)
		}
	}
	if math.Abs(res.Reachability()-0.9624) > 5e-5 {
		t.Errorf("R = %v, want 0.9624", res.Reachability())
	}
	if math.Abs(res.DiscardProb-0.0376) > 5e-5 {
		t.Errorf("discard = %v, want 0.0376", res.DiscardProb)
	}
	wantAges := []int{7, 14, 21, 28}
	for i, a := range wantAges {
		if res.GoalAges[i] != a {
			t.Errorf("goal age %d = %d, want %d", i, res.GoalAges[i], a)
		}
	}
}

func TestSolveMatchesClosedFormProperty(t *testing.T) {
	// For homogeneous steady-state links, the DTMC must reproduce the
	// negative-binomial closed form for any hops/availability/interval.
	f := func(availRaw, hopsRaw, isRaw uint8) bool {
		avail := 0.5 + float64(availRaw%45)/100 // 0.50..0.94
		hops := int(hopsRaw%4) + 1
		is := int(isRaw%4) + 1
		lm, err := link.FromAvailability(avail, 0.9)
		if err != nil {
			return false
		}
		slots := make([]int, hops)
		links := make([]link.Availability, hops)
		for h := 0; h < hops; h++ {
			slots[h] = h + 1
			links[h] = lm.Steady()
		}
		m, err := Build(Config{Slots: slots, Fup: hops + 2, Is: is, Links: links})
		if err != nil {
			return false
		}
		res, err := m.Solve()
		if err != nil {
			return false
		}
		for i := 1; i <= is; i++ {
			want, err := stats.NegBinomialCycles(hops, avail, i)
			if err != nil {
				return false
			}
			if math.Abs(res.CycleProbs[i-1]-want) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveFig10HopCountSweep(t *testing.T) {
	// Fig. 10 at pi(up) = 0.83: R = 0.9992, 0.9964, 0.9907, 0.9812.
	lm, err := link.FromAvailability(0.83, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.9992, 0.9964, 0.9907, 0.9812}
	for hops := 1; hops <= 4; hops++ {
		slots := make([]int, hops)
		links := make([]link.Availability, hops)
		for h := 0; h < hops; h++ {
			slots[h] = h + 1
			links[h] = lm.Steady()
		}
		m, err := Build(Config{Slots: slots, Fup: 7, Is: 4, Links: links})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// The paper's "0.83" is the BER-derived 0.8304; with ps = 0.83
		// exactly the values land within 2e-4 of the printed ones.
		if math.Abs(res.Reachability()-want[hops-1]) > 2e-4 {
			t.Errorf("%d hops: R = %v, want %v", hops, res.Reachability(), want[hops-1])
		}
	}
}

func TestSolveTTLTruncates(t *testing.T) {
	// TTL = 7 on the Is=4 example: only cycle 1 remains reachable.
	cfg := examplePath(t, 0.75, 4)
	cfg.TTL = 7
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CycleProbs) != 1 {
		t.Fatalf("cycles = %d, want 1", len(res.CycleProbs))
	}
	if math.Abs(res.CycleProbs[0]-0.75*0.75*0.75) > 1e-12 {
		t.Errorf("cycle 1 = %v, want 0.421875", res.CycleProbs[0])
	}
	if math.Abs(res.DiscardProb-(1-0.421875)) > 1e-12 {
		t.Errorf("discard = %v, want %v", res.DiscardProb, 1-0.421875)
	}
}

func TestSolveTTLBetweenCycles(t *testing.T) {
	// TTL = 20 keeps goals at ages 7 and 14 but drops 21 and 28.
	cfg := examplePath(t, 0.75, 4)
	cfg.TTL = 20
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GoalAges(); len(got) != 2 || got[0] != 7 || got[1] != 14 {
		t.Fatalf("goal ages = %v, want [7 14]", got)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := stats.NegBinomialCycles(3, 0.75, 1)
	want2, _ := stats.NegBinomialCycles(3, 0.75, 2)
	if math.Abs(res.CycleProbs[0]-want1) > 1e-12 || math.Abs(res.CycleProbs[1]-want2) > 1e-12 {
		t.Errorf("cycle probs %v, want [%v %v]", res.CycleProbs, want1, want2)
	}
}

func TestSolveExpectedAttemptsOneHop(t *testing.T) {
	// 1-hop path, Is = 4: attempts = 1 + pf + pf^2 + pf^3.
	lm, _ := link.FromAvailability(0.83, 0.9)
	m, err := Build(Config{Slots: []int{1}, Fup: 20, Is: 4, Links: []link.Availability{lm.Steady()}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pf := 1 - 0.83
	want := 1 + pf + pf*pf + pf*pf*pf
	if math.Abs(res.ExpectedAttempts-want) > 1e-12 {
		t.Errorf("attempts = %v, want %v", res.ExpectedAttempts, want)
	}
}

func TestSolveExpectedAttemptsTwoHop(t *testing.T) {
	// 2-hop path, Is = 2, ps = 0.75: attempts = 1 + ps + pf + 2 ps pf.
	lm, _ := link.FromAvailability(0.75, 0.9)
	m, err := Build(Config{
		Slots: []int{1, 2},
		Fup:   5,
		Is:    2,
		Links: []link.Availability{lm.Steady(), lm.Steady()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ps, pf := 0.75, 0.25
	want := 1 + ps + pf + 2*ps*pf
	if math.Abs(res.ExpectedAttempts-want) > 1e-12 {
		t.Errorf("attempts = %v, want %v", res.ExpectedAttempts, want)
	}
}

func TestSolveTransientLinkStartsDown(t *testing.T) {
	// A 1-hop path whose link starts DOWN: the first attempt succeeds
	// with the transient availability, not the steady one.
	lm, err := link.New(0.184, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(Config{
		Slots: []int{1},
		Fup:   7,
		Is:    1,
		Links: []link.Availability{func(slot int) float64 { return lm.TransientUp(0, slot) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// The attempt happens in slot 1; from DOWN at slot 0, availability at
	// slot 1 is p_rc = 0.9.
	if math.Abs(res.CycleProbs[0]-0.9) > 1e-12 {
		t.Errorf("cycle 1 = %v, want 0.9", res.CycleProbs[0])
	}
}

func TestSolvePermanentFailureZeroReachability(t *testing.T) {
	lm, _ := link.FromAvailability(0.83, 0.9)
	m, err := Build(Config{
		Slots: []int{1, 2},
		Fup:   5,
		Is:    4,
		Links: []link.Availability{lm.Steady(), link.PermanentDown()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachability() != 0 {
		t.Errorf("R = %v, want 0 over a permanently failed hop", res.Reachability())
	}
	if math.Abs(res.DiscardProb-1) > 1e-12 {
		t.Errorf("discard = %v, want 1", res.DiscardProb)
	}
}

func TestGoalTrajectoriesStepShape(t *testing.T) {
	// Fig. 6's step shape: each goal's probability is zero before its
	// arrival age, jumps there, then stays constant (absorbing).
	m, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := m.GoalTrajectories()
	if err != nil {
		t.Fatal(err)
	}
	ages := m.GoalAges()
	for gi, curve := range traj {
		a := ages[gi]
		for age := 0; age < a; age++ {
			if curve[age] != 0 {
				t.Errorf("goal %d has mass %v before its age %d", gi, curve[age], a)
			}
		}
		if curve[a] == 0 {
			t.Errorf("goal %d has no mass at its arrival age %d", gi, a)
		}
		for age := a; age < len(curve); age++ {
			if curve[age] != curve[a] {
				t.Errorf("goal %d mass changed after absorption: %v vs %v", gi, curve[age], curve[a])
			}
		}
	}
	// Final values must match Fig. 6's data tips.
	finals := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	for gi, w := range finals {
		last := traj[gi][len(traj[gi])-1]
		if math.Abs(last-w) > 5e-5 {
			t.Errorf("goal %d final = %v, want %v", gi, last, w)
		}
	}
}

func TestReachabilityMonotoneInTTLProperty(t *testing.T) {
	// Raising the TTL can only help: R is non-decreasing in TTL.
	f := func(availRaw, ttlRaw uint8) bool {
		avail := 0.5 + float64(availRaw%45)/100
		lm, err := link.FromAvailability(avail, 0.9)
		if err != nil {
			return false
		}
		cfg := Config{
			Slots: []int{3, 6, 7},
			Fup:   7,
			Is:    4,
			Links: []link.Availability{lm.Steady(), lm.Steady(), lm.Steady()},
		}
		horizon := cfg.Is * cfg.Fup
		ttl := int(ttlRaw)%(horizon-1) + 1
		cfg.TTL = ttl
		m1, err := Build(cfg)
		if err != nil {
			return false
		}
		r1, err := m1.Solve()
		if err != nil {
			return false
		}
		cfg.TTL = ttl + 1
		m2, err := Build(cfg)
		if err != nil {
			return false
		}
		r2, err := m2.Solve()
		if err != nil {
			return false
		}
		return r2.Reachability() >= r1.Reachability()-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateNameFormat(t *testing.T) {
	if got := stateName(3, 1, 3); got != "(3,3,-)" {
		t.Errorf("stateName(3,1,3) = %q, want (3,3,-)", got)
	}
	if got := stateName(6, 2, 3); got != "(6,6,6)" {
		t.Errorf("stateName(6,2,3) = %q, want (6,6,6)", got)
	}
	if got := stateName(0, 0, 2); got != "(0,-)" {
		t.Errorf("stateName(0,0,2) = %q, want (0,-)", got)
	}
}

func TestWriteDOTIncludesGoals(t *testing.T) {
	m, err := Build(examplePath(t, 0.75, 1))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := m.WriteDOT(&b, "fig4"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"R7", "Discard", "doublecircle"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

// TestWriteDOTExact pins the DOT writer byte for byte on a chain with
// availabilities of exactly 1 and 0: zero-valued edges print as "0", and
// the goals R2 and R5 and the discard state are double circles drawn
// without their self-loops.
func TestWriteDOTExact(t *testing.T) {
	m, err := Build(Config{Slots: []int{1, 2}, Fup: 3, Is: 2, TTL: 5, Links: []link.Availability{
		func(int) float64 { return 1 },
		// Hop 2 is down through the first frame and up after it.
		func(slot int) float64 {
			if slot <= 3 {
				return 0
			}
			return 1
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := m.WriteDOT(&b, "edge"); err != nil {
		t.Fatal(err)
	}
	want := `digraph "edge" {
  rankdir=LR;
  s0 [label="R2" shape=doublecircle];
  s1 [label="R5" shape=doublecircle];
  s2 [label="Discard" shape=doublecircle];
  s3 [label="(0,-)" shape=circle];
  s4 [label="(1,1)" shape=circle];
  s5 [label="(2,2)" shape=circle];
  s6 [label="(3,3)" shape=circle];
  s7 [label="(4,4)" shape=circle];
  s8 [label="(1,-)" shape=circle];
  s9 [label="(2,-)" shape=circle];
  s10 [label="(3,-)" shape=circle];
  s11 [label="(4,-)" shape=circle];
  s3 -> s4 [label="1"];
  s3 -> s8 [label="0"];
  s4 -> s0 [label="0"];
  s4 -> s5 [label="1"];
  s5 -> s6 [label="1"];
  s6 -> s7 [label="1"];
  s7 -> s1 [label="1"];
  s7 -> s2 [label="0"];
  s8 -> s9 [label="1"];
  s9 -> s10 [label="1"];
  s10 -> s7 [label="1"];
  s10 -> s11 [label="0"];
  s11 -> s2 [label="1"];
}
`
	if got := b.String(); got != want {
		t.Errorf("WriteDOT =\n%s\nwant\n%s", got, want)
	}
}

func TestConfigEcho(t *testing.T) {
	cfg := examplePath(t, 0.75, 2)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Config()
	if got.Fup != cfg.Fup || got.Is != cfg.Is || len(got.Slots) != len(cfg.Slots) {
		t.Error("Config() does not echo the build configuration")
	}
}
