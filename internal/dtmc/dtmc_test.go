package dtmc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wirelesshart/internal/linalg"
)

// buildTwoStateLink returns the paper's Fig. 3 link chain.
func buildTwoStateLink(t *testing.T, pfl, prc float64) (*Chain, int, int) {
	t.Helper()
	c := New()
	up := c.MustAddState("UP")
	down := c.MustAddState("DOWN")
	for _, e := range []error{
		c.AddTransition(up, up, 1-pfl),
		c.AddTransition(up, down, pfl),
		c.AddTransition(down, up, prc),
		c.AddTransition(down, down, 1-prc),
	} {
		if e != nil {
			t.Fatal(e)
		}
	}
	if err := c.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	return c, up, down
}

func TestAddStateDuplicate(t *testing.T) {
	c := New()
	if _, err := c.AddState("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddState("a"); err == nil {
		t.Error("duplicate state should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddState on duplicate should panic")
		}
	}()
	c.MustAddState("a")
}

func TestStateLookup(t *testing.T) {
	c := New()
	id := c.MustAddState("x")
	got, ok := c.StateID("x")
	if !ok || got != id {
		t.Errorf("StateID(x) = %d, %v", got, ok)
	}
	if _, ok := c.StateID("y"); ok {
		t.Error("StateID of unknown name should report false")
	}
	if c.Name(id) != "x" {
		t.Errorf("Name(%d) = %q", id, c.Name(id))
	}
	if c.NumStates() != 1 {
		t.Errorf("NumStates() = %d", c.NumStates())
	}
}

func TestAddTransitionValidation(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	b := c.MustAddState("b")
	if err := c.AddTransition(a, b, 1.5); err == nil {
		t.Error("probability > 1 should error")
	}
	if err := c.AddTransition(a, b, -0.1); err == nil {
		t.Error("negative probability should error")
	}
	if err := c.AddTransition(-1, b, 0.5); err == nil {
		t.Error("unknown from state should error")
	}
	if err := c.AddTransition(a, 99, 0.5); err == nil {
		t.Error("unknown to state should error")
	}
	if err := c.AddTransition(a, b, math.NaN()); err == nil {
		t.Error("NaN probability should error")
	}
	if err := c.MarkAbsorbing(b); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransition(b, a, 1); err == nil {
		t.Error("transition out of absorbing state should error")
	}
}

func TestMarkAbsorbingValidation(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	b := c.MustAddState("b")
	if err := c.AddTransition(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(a); err == nil {
		t.Error("absorbing a state with outgoing transitions should error")
	}
	if err := c.MarkAbsorbing(99); err == nil {
		t.Error("unknown state should error")
	}
	if err := c.MarkAbsorbing(b); err != nil {
		t.Fatal(err)
	}
	if !c.IsAbsorbing(b) || c.IsAbsorbing(a) {
		t.Error("IsAbsorbing flags wrong")
	}
}

func TestValidate(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	b := c.MustAddState("b")
	if err := c.Validate(1e-12); err == nil {
		t.Error("dangling state should fail validation")
	}
	if err := c.AddTransition(a, b, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(b); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(1e-12); err == nil {
		t.Error("row summing to 0.4 should fail validation")
	}
	if err := c.AddTransition(a, a, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(1e-12); err != nil {
		t.Errorf("valid chain failed validation: %v", err)
	}
	if err := New().Validate(1e-12); err == nil {
		t.Error("empty chain should fail validation")
	}
}

func TestStepTwoStateLink(t *testing.T) {
	// One step from UP must give [1-pfl, pfl].
	pfl, prc := 0.0966, 0.9
	c, up, down := buildTwoStateLink(t, pfl, prc)
	p1 := linalg.NewVector(2)
	if err := c.Compile().StepInto(p1, pointMass(2, up)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1[up]-(1-pfl)) > 1e-15 || math.Abs(p1[down]-pfl) > 1e-15 {
		t.Errorf("p1 = %v, want [%v %v]", p1, 1-pfl, pfl)
	}
}

func TestTransientConvergesToStationary(t *testing.T) {
	// The two-state link's stationary P(up) is prc/(prc+pfl).
	pfl, prc := 0.184, 0.9
	c, up, down := buildTwoStateLink(t, pfl, prc)
	pT, err := c.Compile().Transient(pointMass(2, down), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantUp := prc / (prc + pfl)
	if math.Abs(pT[up]-wantUp) > 1e-12 {
		t.Errorf("transient after 200 steps %v, stationary %v", pT[up], wantUp)
	}
}

func TestTransientTrajectoryFig17(t *testing.T) {
	// Fig. 17: starting DOWN, the link recovers almost immediately. After
	// one slot P(up) = prc = 0.9; within a few slots it is at steady state.
	c, up, down := buildTwoStateLink(t, 0.184, 0.9)
	var traj []linalg.Vector
	_, err := c.Compile().Transient(pointMass(2, down), 6, func(_ int, p linalg.Vector) error {
		traj = append(traj, p.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 7 {
		t.Fatalf("trajectory length %d, want 7", len(traj))
	}
	if traj[0][down] != 1 {
		t.Error("trajectory must start at the initial distribution")
	}
	if math.Abs(traj[1][up]-0.9) > 1e-15 {
		t.Errorf("P(up) after one slot = %v, want 0.9", traj[1][up])
	}
	steady := 0.9 / (0.9 + 0.184)
	if math.Abs(traj[6][up]-steady) > 1e-4 {
		t.Errorf("P(up) after six slots = %v, want ~%v", traj[6][up], steady)
	}
}

func TestStepPreservesMass(t *testing.T) {
	f := func(a, b, seed uint8) bool {
		pfl := float64(a%99+1) / 100
		prc := float64(b%99+1) / 100
		c := New()
		up := c.MustAddState("UP")
		down := c.MustAddState("DOWN")
		_ = c.AddTransition(up, up, 1-pfl)
		_ = c.AddTransition(up, down, pfl)
		_ = c.AddTransition(down, up, prc)
		_ = c.AddTransition(down, down, 1-prc)
		w := float64(seed) / 255
		k := c.Compile()
		p, next := linalg.Vector{w, 1 - w}, linalg.NewVector(2)
		for s := 0; s < 10; s++ {
			if err := k.StepInto(next, p); err != nil {
				return false
			}
			p, next = next, p
		}
		return math.Abs(sum(p)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepAbsorbingKeepsMass(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	g := c.MustAddState("goal")
	if err := c.AddTransition(a, g, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(g); err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile().Transient(pointMass(2, a), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p[g] != 1 {
		t.Errorf("mass in goal = %v, want 1", p[g])
	}
}

func TestWriteDOT(t *testing.T) {
	c, _, _ := buildTwoStateLink(t, 0.2, 0.8)
	var b strings.Builder
	if err := c.WriteDOT(&b, "link"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "UP", "DOWN", "0.2", "0.8", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTAbsorbingShape(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	g := c.MustAddState("goal")
	_ = c.AddTransition(a, g, 1)
	_ = c.MarkAbsorbing(g)
	var b strings.Builder
	if err := c.WriteDOT(&b, "m"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "doublecircle") {
		t.Error("absorbing state should render as doublecircle")
	}
}
