package dtmc

import (
	"math"
	"testing"

	"wirelesshart/internal/linalg"
)

// buildGamblersRuin builds a chain 0..n where state k moves to k+1 with p
// and k-1 with 1-p; 0 and n absorb.
func buildGamblersRuin(t *testing.T, n int, p float64) (*Chain, []int) {
	t.Helper()
	c := New()
	ids := make([]int, n+1)
	for k := 0; k <= n; k++ {
		ids[k] = c.MustAddState("k" + string(rune('0'+k)))
	}
	if err := c.MarkAbsorbing(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(ids[n]); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < n; k++ {
		if err := c.AddTransition(ids[k], ids[k+1], p); err != nil {
			t.Fatal(err)
		}
		if err := c.AddTransition(ids[k], ids[k-1], 1-p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

// absorb runs the kernel from a point mass on start for a horizon long
// enough that the remaining transient mass is negligible, returning the
// final distribution and the expected number of steps spent in transient
// states (sum over t of P(not yet absorbed at t)).
func absorb(t *testing.T, c *Chain, start, horizon int) (linalg.Vector, float64) {
	t.Helper()
	var steps float64
	p, err := c.Compile().Transient(pointMass(c.NumStates(), start), horizon, func(_ int, p linalg.Vector) error {
		for id, mass := range p {
			if !c.IsAbsorbing(id) {
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
	c, ids := buildGamblersRuin(t, 4, 0.5)
	p, steps := absorb(t, c, ids[2], 2000)
	if math.Abs(p[ids[4]]-0.5) > 1e-12 {
		t.Errorf("P(win) = %v, want 0.5", p[ids[4]])
	}
	if math.Abs(p[ids[0]]-0.5) > 1e-12 {
		t.Errorf("P(ruin) = %v, want 0.5", p[ids[0]])
	}
	if math.Abs(steps-4) > 1e-9 {
		t.Errorf("E[steps] = %v, want 4", steps)
	}
}

func TestAbsorbBiasedGamblersRuin(t *testing.T) {
	// Biased ruin: P(reach n from k) = (1-r^k)/(1-r^n), r = q/p.
	p := 0.6
	c, ids := buildGamblersRuin(t, 5, p)
	dist, _ := absorb(t, c, ids[2], 2000)
	r := (1 - p) / p
	want := (1 - math.Pow(r, 2)) / (1 - math.Pow(r, 5))
	if math.Abs(dist[ids[5]]-want) > 1e-12 {
		t.Errorf("P(win) = %v, want %v", dist[ids[5]], want)
	}
	// Absorption probabilities must sum to one.
	if total := dist[ids[0]] + dist[ids[5]]; math.Abs(total-1) > 1e-12 {
		t.Errorf("absorption probabilities sum to %v", total)
	}
}

// retryChannel is a transmit/retry loop: an attempt succeeds with ps,
// else the message retries.
func retryChannel(t *testing.T, ps float64) (c *Chain, try, done int) {
	t.Helper()
	c = New()
	try = c.MustAddState("try")
	done = c.MustAddState("done")
	if err := c.AddTransition(try, done, ps); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransition(try, try, 1-ps); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkAbsorbing(done); err != nil {
		t.Fatal(err)
	}
	return c, try, done
}

func TestAbsorbRetryChannel(t *testing.T) {
	// The expected number of attempts (visits to try) is 1/ps.
	ps := 0.75
	c, try, done := retryChannel(t, ps)
	p, visits := absorb(t, c, try, 200)
	if math.Abs(visits-1/ps) > 1e-12 {
		t.Errorf("E[visits to try] = %v, want %v", visits, 1/ps)
	}
	if math.Abs(p[done]-1) > 1e-12 {
		t.Errorf("P(done) = %v, want 1", p[done])
	}
}

func TestAbsorbStartAtAbsorbing(t *testing.T) {
	c := New()
	a := c.MustAddState("a")
	g := c.MustAddState("g")
	_ = c.AddTransition(a, g, 1)
	_ = c.MarkAbsorbing(g)
	p, steps := absorb(t, c, g, 10)
	if p[g] != 1 || steps != 0 {
		t.Errorf("start-at-absorbing: dist %v, %v transient steps", p, steps)
	}
}

func TestAbsorptionTimesRetryChannel(t *testing.T) {
	// try -> done with ps per step: absorption time is geometric, read off
	// the observed trajectory as the per-step growth of the absorbed mass.
	ps := 0.75
	c, try, done := retryChannel(t, ps)
	times := make([]float64, 11)
	prev := 0.0
	p, err := c.Compile().Transient(pointMass(2, try), 10, func(s int, p linalg.Vector) error {
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
