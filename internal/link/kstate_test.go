package link

import (
	"math"
	"strings"
	"testing"

	"wirelesshart/internal/linalg"
)

// equivTol is the satellite-1 pin: the k=2 embedding must reproduce the
// classic two-state model exactly up to float rounding.
const equivTol = 1e-12

func TestNewKStateValidation(t *testing.T) {
	valid := [][]float64{{0.9, 0.1}, {0.4, 0.6}}
	tests := []struct {
		name    string
		trans   [][]float64
		succ    []float64
		wantErr string
	}{
		{name: "valid two state", trans: valid, succ: []float64{1, 0}},
		{name: "valid three state", trans: [][]float64{
			{0.8, 0.1, 0.1}, {0.2, 0.7, 0.1}, {0.3, 0.3, 0.4},
		}, succ: []float64{0.1, 0.6, 0.99}},
		{name: "no states", trans: nil, succ: nil, wantErr: "at least one state"},
		{name: "row count mismatch", trans: valid, succ: []float64{1, 0, 0.5}, wantErr: "transition rows"},
		{name: "row length mismatch", trans: [][]float64{{0.9, 0.1}, {1}}, succ: []float64{1, 0}, wantErr: "entries"},
		{name: "row does not sum to one", trans: [][]float64{{0.9, 0.2}, {0.4, 0.6}}, succ: []float64{1, 0}, wantErr: "sums to"},
		{name: "negative transition", trans: [][]float64{{1.1, -0.1}, {0.4, 0.6}}, succ: []float64{1, 0}, wantErr: "out of [0,1]"},
		{name: "NaN transition", trans: [][]float64{{math.NaN(), 1}, {0.4, 0.6}}, succ: []float64{1, 0}, wantErr: "out of [0,1]"},
		{name: "succ above one", trans: valid, succ: []float64{1.5, 0}, wantErr: "success probability"},
		{name: "succ negative", trans: valid, succ: []float64{1, -0.2}, wantErr: "success probability"},
		{name: "succ NaN", trans: valid, succ: []float64{1, math.NaN()}, wantErr: "success probability"},
		{name: "reducible chain", trans: [][]float64{{1, 0}, {0, 1}}, succ: []float64{1, 0}, wantErr: "stationary"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewKState(tt.trans, tt.succ)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("NewKState() error = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("NewKState() error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestKStateStationaryMatchesPowerIteration(t *testing.T) {
	trans := [][]float64{
		{0.80, 0.15, 0.05},
		{0.20, 0.70, 0.10},
		{0.05, 0.25, 0.70},
	}
	m, err := NewKState(trans, []float64{0.05, 0.6, 0.98})
	if err != nil {
		t.Fatal(err)
	}
	// Power-iterate an arbitrary start distribution to convergence.
	dist := []float64{1, 0, 0}
	for it := 0; it < 10000; it++ {
		next := make([]float64, 3)
		for i, p := range dist {
			for j := 0; j < 3; j++ {
				next[j] += p * trans[i][j]
			}
		}
		dist = next
	}
	pi := m.StationaryDist()
	for i := range pi {
		if math.Abs(pi[i]-dist[i]) > 1e-10 {
			t.Errorf("pi[%d] = %v, power iteration gives %v", i, pi[i], dist[i])
		}
	}
	sum := pi[0] + pi[1] + pi[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("stationary distribution sums to %v", sum)
	}
}

// TestKStateTwoStateEquivalence is the refactor's no-regression oracle at
// the link layer (satellite 1): the k=2 embedding of a classic model must
// agree with it at 1e-12 on every marginal the stack consumes.
func TestKStateTwoStateEquivalence(t *testing.T) {
	models := []struct {
		name     string
		pfl, prc float64
	}{
		{name: "paper BER 1e-4", pfl: 0.0966, prc: 0.9},
		{name: "sticky", pfl: 0.01, prc: 0.05},
		{name: "volatile", pfl: 0.45, prc: 0.55},
		{name: "perfect", pfl: 0, prc: 0.9},
	}
	for _, tt := range models {
		t.Run(tt.name, func(t *testing.T) {
			m, err := New(tt.pfl, tt.prc)
			if err != nil {
				t.Fatal(err)
			}
			ks, err := FromModel(m)
			if err != nil {
				t.Fatal(err)
			}
			if ks.States() != 2 || m.States() != 2 {
				t.Fatalf("States() = %d/%d, want 2/2", ks.States(), m.States())
			}
			if math.Abs(ks.SteadyUp()-m.SteadyUp()) > equivTol {
				t.Errorf("SteadyUp() = %v, model gives %v", ks.SteadyUp(), m.SteadyUp())
			}
			steadyK, steadyM := ks.Steady(), m.Steady()
			// Step the embedded chain from the UP state, the DOWN state
			// and a mixture; its success marginal must follow the
			// model's closed-form transient.
			k := kernelOf(t, ks.TransitionMatrix())
			succ := ks.SuccessProbs()
			for _, u0 := range []float64{1, 0, 0.37} {
				_, err := k.Transient(linalg.Vector{u0, 1 - u0}, 100, func(slot int, p linalg.Vector) error {
					if d := math.Abs(steadyK(slot) - steadyM(slot)); d > equivTol {
						t.Fatalf("slot %d: Steady diverges by %v", slot, d)
					}
					got := p[0]*succ[0] + p[1]*succ[1]
					if d := math.Abs(got - m.TransientUp(u0, slot)); d > equivTol {
						t.Fatalf("u0 %v slot %d: embedded chain diverges from TransientUp by %v", u0, slot, d)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestKStateMarginalConvergesToSteady steps the chain from state 0: its
// success marginal starts at state 0's success probability and settles on
// SteadyUp.
func TestKStateMarginalConvergesToSteady(t *testing.T) {
	m, err := NewKState([][]float64{
		{0.7, 0.2, 0.1},
		{0.3, 0.5, 0.2},
		{0.1, 0.3, 0.6},
	}, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	succ := m.SuccessProbs()
	marginal := func(p linalg.Vector) float64 { return p[0]*succ[0] + p[1]*succ[1] + p[2]*succ[2] }
	p0 := linalg.Vector{1, 0, 0}
	if got := marginal(p0); got != succ[0] {
		t.Errorf("marginal at slot 0 = %v, want state-0 success prob %v", got, succ[0])
	}
	p, err := kernelOf(t, m.TransitionMatrix()).Transient(p0, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := marginal(p); math.Abs(got-m.SteadyUp()) > 1e-9 {
		t.Errorf("marginal at slot 500 = %v, steady = %v", got, m.SteadyUp())
	}
}

func TestNewUniformMixing(t *testing.T) {
	succ := []float64{0.1, 0.5, 0.9}
	m, err := NewUniformMixing(0.85, succ)
	if err != nil {
		t.Fatal(err)
	}
	// Doubly stochastic: the stationary distribution is uniform and the
	// steady availability is the plain mean of succ, independent of stay.
	for i, p := range m.StationaryDist() {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("pi[%d] = %v, want 1/3", i, p)
		}
	}
	mean := (succ[0] + succ[1] + succ[2]) / 3
	if math.Abs(m.SteadyUp()-mean) > 1e-12 {
		t.Errorf("SteadyUp() = %v, want mean %v", m.SteadyUp(), mean)
	}
	tr := m.TransitionMatrix()
	for i := range tr {
		for j := range tr[i] {
			want := 0.075
			if i == j {
				want = 0.85
			}
			if math.Abs(tr[i][j]-want) > 1e-12 {
				t.Errorf("trans[%d][%d] = %v, want %v", i, j, tr[i][j], want)
			}
		}
	}

	if _, err := NewUniformMixing(0.9, []float64{0.5}); err == nil {
		t.Error("single-state mixing chain accepted")
	}
	if _, err := NewUniformMixing(1.5, succ); err == nil {
		t.Error("stay probability above one accepted")
	}
	if _, err := NewUniformMixing(1, succ); err == nil {
		t.Error("stay=1 (reducible identity chain) accepted")
	}
}

func TestAppendKeyDistinguishesProcesses(t *testing.T) {
	m, err := New(0.0966, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewUniformMixing(0.8, []float64{0.2, 0.9, 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for name, p := range map[string]Process{
		"model":       m,
		"k2 embed":    ks,
		"k3 mixing":   other,
		"other model": Model{pfl: 0.0966, prc: 0.8},
	} {
		k := string(p.AppendKey(nil))
		for prev, prevKey := range keys {
			if prevKey == k {
				t.Errorf("%s and %s share key %q", name, prev, k)
			}
		}
		keys[name] = k
	}
	// Same parameters must share a key.
	again, err := New(0.0966, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if string(again.AppendKey(nil)) != keys["model"] {
		t.Error("identical models produced different keys")
	}
}

func TestMemorylessEquivalent(t *testing.T) {
	m, err := New(0.0966, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if MemorylessEquivalent(m) != m {
		t.Error("model-backed process must round-trip unchanged")
	}
	ks, err := NewUniformMixing(0.8, []float64{0.2, 0.9, 1})
	if err != nil {
		t.Fatal(err)
	}
	red := MemorylessEquivalent(ks)
	if math.Abs(red.SteadyUp()-ks.SteadyUp()) > 1e-12 {
		t.Errorf("reduced SteadyUp = %v, want %v", red.SteadyUp(), ks.SteadyUp())
	}
	// The reduction is the iid chain: from the first transition on, the
	// per-slot availability is the steady value from any initial state.
	for slot := 1; slot <= 10; slot++ {
		if d := math.Abs(red.TransientUp(0, slot) - red.SteadyUp()); d > 1e-12 {
			t.Fatalf("iid reduction has memory: slot %d diverges by %v", slot, d)
		}
	}
	dead, err := NewUniformMixing(0.5, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if MemorylessEquivalent(dead).SteadyUp() > 1e-12 {
		t.Error("all-failing process must reduce to a (near-)zero-availability model")
	}
}
