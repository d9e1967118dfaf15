package dtmc

import (
	"math"
	"testing"

	"wirelesshart/internal/linalg"
)

// gamblersRuin builds a chain 0..n where state k moves to k+1 with p and
// k-1 with 1-p; 0 and n absorb. State k has id k.
func gamblersRuin(t *testing.T, n int, p float64) *Kernel {
	t.Helper()
	edges := []edge{{0, 0, 1}}
	for k := 1; k < n; k++ {
		edges = append(edges, edge{k, k + 1, p}, edge{k, k - 1, 1 - p})
	}
	return kernelOf(t, n+1, append(edges, edge{n, n, 1})...)
}

// isAbsorbing reports whether state id's only edge is a self-loop.
func isAbsorbing(k *Kernel, id int) bool {
	cols, _ := k.Row(id)
	return len(cols) == 1 && cols[0] == id
}

// absorb runs the kernel from a point mass on start for a horizon long
// enough that the remaining transient mass is negligible, returning the
// final distribution and the expected number of steps spent in transient
// states (sum over t of P(not yet absorbed at t)).
func absorb(t *testing.T, k *Kernel, start, horizon int) (linalg.Vector, float64) {
	t.Helper()
	var steps float64
	p, err := k.Transient(pointMass(k.NumStates(), start), horizon, func(_ int, p linalg.Vector) error {
		for id, mass := range p {
			if !isAbsorbing(k, id) {
				steps += mass
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, steps
}

func TestAbsorbFairGamblersRuin(t *testing.T) {
	// Fair coin, start in the middle of 0..4: win probability 1/2,
	// expected duration k(n-k) = 4.
	p, steps := absorb(t, gamblersRuin(t, 4, 0.5), 2, 2000)
	if math.Abs(p[4]-0.5) > 1e-12 {
		t.Errorf("P(win) = %v, want 0.5", p[4])
	}
	if math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("P(ruin) = %v, want 0.5", p[0])
	}
	if math.Abs(steps-4) > 1e-9 {
		t.Errorf("E[steps] = %v, want 4", steps)
	}
}

func TestAbsorbBiasedGamblersRuin(t *testing.T) {
	// Biased ruin: P(reach n from k) = (1-r^k)/(1-r^n), r = q/p.
	p := 0.6
	dist, _ := absorb(t, gamblersRuin(t, 5, p), 2, 2000)
	r := (1 - p) / p
	want := (1 - math.Pow(r, 2)) / (1 - math.Pow(r, 5))
	if math.Abs(dist[5]-want) > 1e-12 {
		t.Errorf("P(win) = %v, want %v", dist[5], want)
	}
	// Absorption probabilities must sum to one.
	if total := dist[0] + dist[5]; math.Abs(total-1) > 1e-12 {
		t.Errorf("absorption probabilities sum to %v", total)
	}
}

// retryChannel is a transmit/retry loop: an attempt succeeds with ps,
// else the message retries.
func retryChannel(t *testing.T, ps float64) (k *Kernel, try, done int) {
	t.Helper()
	try, done = 0, 1
	return kernelOf(t, 2, edge{try, done, ps}, edge{try, try, 1 - ps}, edge{done, done, 1}), try, done
}

func TestAbsorbRetryChannel(t *testing.T) {
	// The expected number of attempts (visits to try) is 1/ps.
	ps := 0.75
	k, try, done := retryChannel(t, ps)
	p, visits := absorb(t, k, try, 200)
	if math.Abs(visits-1/ps) > 1e-12 {
		t.Errorf("E[visits to try] = %v, want %v", visits, 1/ps)
	}
	if math.Abs(p[done]-1) > 1e-12 {
		t.Errorf("P(done) = %v, want 1", p[done])
	}
}

func TestAbsorbStartAtAbsorbing(t *testing.T) {
	const g = 1
	p, steps := absorb(t, kernelOf(t, 2, edge{0, g, 1}, edge{g, g, 1}), g, 10)
	if p[g] != 1 || steps != 0 {
		t.Errorf("start-at-absorbing: dist %v, %v transient steps", p, steps)
	}
}

func TestAbsorptionTimesRetryChannel(t *testing.T) {
	// try -> done with ps per step: absorption time is geometric, read off
	// the observed trajectory as the per-step growth of the absorbed mass.
	ps := 0.75
	k, try, done := retryChannel(t, ps)
	times := make([]float64, 11)
	prev := 0.0
	p, err := k.Transient(pointMass(2, try), 10, func(s int, p linalg.Vector) error {
		times[s] = p[done] - prev
		prev = p[done]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		want := math.Pow(1-ps, float64(k-1)) * ps
		if math.Abs(times[k]-want) > 1e-12 {
			t.Errorf("P(absorb at %d) = %v, want %v", k, times[k], want)
		}
	}
	if times[0] != 0 {
		t.Error("cannot absorb at time 0 from a transient start")
	}
	wantTail := math.Pow(1-ps, 10)
	if math.Abs(1-p[done]-wantTail) > 1e-12 {
		t.Errorf("unabsorbed = %v, want %v", 1-p[done], wantTail)
	}
}
