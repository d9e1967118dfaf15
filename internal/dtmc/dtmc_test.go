package dtmc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wirelesshart/internal/linalg"
)

// twoStateLink returns the paper's Fig. 3 link chain with UP as state 0
// and DOWN as state 1.
func twoStateLink(t testing.TB, pfl, prc float64) (k *Kernel, up, down int) {
	t.Helper()
	up, down = 0, 1
	k = kernelOf(t, 2,
		edge{up, up, 1 - pfl}, edge{up, down, pfl},
		edge{down, up, prc}, edge{down, down, 1 - prc})
	return k, up, down
}

func TestStepTwoStateLink(t *testing.T) {
	// One step from UP must give [1-pfl, pfl].
	pfl, prc := 0.0966, 0.9
	k, up, down := twoStateLink(t, pfl, prc)
	p1 := linalg.NewVector(2)
	if err := k.StepInto(p1, pointMass(2, up)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1[up]-(1-pfl)) > 1e-15 || math.Abs(p1[down]-pfl) > 1e-15 {
		t.Errorf("p1 = %v, want [%v %v]", p1, 1-pfl, pfl)
	}
}

func TestTransientConvergesToStationary(t *testing.T) {
	// The two-state link's stationary P(up) is prc/(prc+pfl).
	pfl, prc := 0.184, 0.9
	k, up, down := twoStateLink(t, pfl, prc)
	pT, err := k.Transient(pointMass(2, down), 200, nil)
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
	k, up, down := twoStateLink(t, 0.184, 0.9)
	var traj []linalg.Vector
	_, err := k.Transient(pointMass(2, down), 6, func(_ int, p linalg.Vector) error {
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
		k, _, _ := twoStateLink(t, pfl, prc)
		w := float64(seed) / 255
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
	const a, g = 0, 1
	p, err := kernelOf(t, 2, edge{a, g, 1}, edge{g, g, 1}).Transient(pointMass(2, a), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p[g] != 1 {
		t.Errorf("mass in goal = %v, want 1", p[g])
	}
}

// names labels state id by its index in the given list.
func names(list ...string) func(int) string {
	return func(id int) string { return list[id] }
}

func TestWriteDOT(t *testing.T) {
	k, _, _ := twoStateLink(t, 0.2, 0.8)
	var b strings.Builder
	if err := k.WriteDOT(&b, "link", names("UP", "DOWN")); err != nil {
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
	k := kernelOf(t, 2, edge{0, 1, 1}, edge{1, 1, 1})
	var b strings.Builder
	if err := k.WriteDOT(&b, "m", names("a", "goal")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "doublecircle") {
		t.Error("absorbing state should render as doublecircle")
	}
}

// TestKernelWriteDOTExact pins the rendering byte for byte: a state whose
// only edge is a self-loop is a double circle without its loop, a
// self-loop beside other edges is printed, and zero-valued edges are
// printed.
func TestKernelWriteDOTExact(t *testing.T) {
	k := kernelOf(t, 4,
		edge{0, 1, 0.5}, edge{0, 2, 0.5}, edge{0, 3, 0},
		edge{1, 1, 1},
		edge{2, 2, 0.25}, edge{2, 1, 0.75},
		edge{3, 3, 1})
	var b strings.Builder
	if err := k.WriteDOT(&b, "exact", names("start", "goal", "retry", "drop")); err != nil {
		t.Fatal(err)
	}
	want := `digraph "exact" {
  rankdir=LR;
  s0 [label="start" shape=circle];
  s1 [label="goal" shape=doublecircle];
  s2 [label="retry" shape=circle];
  s3 [label="drop" shape=doublecircle];
  s0 -> s1 [label="0.5"];
  s0 -> s2 [label="0.5"];
  s0 -> s3 [label="0"];
  s2 -> s2 [label="0.25"];
  s2 -> s1 [label="0.75"];
}
`
	if got := b.String(); got != want {
		t.Errorf("WriteDOT:\n%s\nwant:\n%s", got, want)
	}
}
