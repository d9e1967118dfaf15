package pathmodel

import (
	"fmt"

	"wirelesshart/internal/linalg"
)

// Result holds the transient solution of a path model at the end of its
// reporting interval. Nothing writes to a Result once Solve or SolveBatch
// has returned it, so solved results are shared read-only between
// concurrent readers (the evaluation engine's path-result memo).
type Result struct {
	// CycleProbs[i] is the probability that the message reaches the
	// gateway in cycle i+1 (the transient probability of goal R_{a_{i+1}}
	// at t = Is*Fup). Cycles whose goal lies beyond the TTL are absent.
	CycleProbs []float64
	// GoalAges[i] is the arrival age of cycle i+1 in uplink slots.
	GoalAges []int
	// DiscardProb is the probability that the message is discarded (TTL
	// expiry): the paper's message loss 1-R.
	DiscardProb float64
	// ExpectedAttempts is the exact expected number of transmission
	// attempts (successful or not) made for this message during the
	// reporting interval — the numerator of the utilization measure.
	ExpectedAttempts float64
	// Fup and Is echo the model's configuration for measure derivation.
	Fup, Is int
	// Hops is the path length.
	Hops int
}

// Reachability returns R: the total probability of reaching the gateway
// within the reporting interval (paper Eq. 6).
func (r *Result) Reachability() float64 {
	var sum float64
	for _, p := range r.CycleProbs {
		sum += p
	}
	return sum
}

// Solve computes the distribution at the end of the reporting interval,
// p(Is*Fup), and extracts the cycle probabilities, discard probability and
// exact expected attempt count. Every transient edge of Algorithm 1 raises
// the message age t by one slot and the hops done h by at most one, so the
// solve is a recursion over ages: layer t holds the mass of each (t, h),
// and scattering it fills layer t+1, the goal reached from the last hop,
// and the discard state once the age reaches the TTL. Two n-length layers
// suffice; no state space is built.
//
// Within an age, h runs from high to low. That is the order in which the
// transition matrix lists Algorithm 1's states of one age, so every
// probability accumulates its addends in the order the step-by-step
// recursion p(t) = p(t-1) P does and the result is bit-identical to it.
// The order matters only for the discard state, which the last age feeds
// from every hop.
func (m *Model) Solve() (*Result, error) {
	s := m.s
	n := len(s.slots)
	res := &Result{
		CycleProbs: make([]float64, len(s.ages)),
		GoalAges:   m.GoalAges(),
		Fup:        m.cfg.Fup,
		Is:         m.cfg.Is,
		Hops:       n,
	}
	layers := make([]float64, 2*n)
	cur, next := layers[:n], layers[n:]
	cur[0] = 1
	a0 := s.slots[n-1]
	var discard, attempts float64
	attempt, hmax := 0, 0
	for t := 0; t < s.effTTL; t++ {
		// hmax is the hops an all-success message has completed by age t,
		// capped at n-1.
		for hmax < n-1 && s.slots[hmax] <= t {
			hmax++
		}
		tx := s.hopAt[t%s.fup]
		var ps float64
		if tx >= 0 {
			ps = m.avail[attempt]
			attempt++
		}
		// Mass that ages past the TTL without arriving is discarded.
		last := t+1 == s.effTTL
		for h := hmax; h >= 0; h-- {
			mass := cur[h]
			if mass == 0 {
				continue
			}
			if h != tx {
				if last {
					discard += mass
				} else {
					next[h] += mass
				}
				continue
			}
			attempts += mass
			switch {
			case h == n-1:
				// Final hop: success reaches the goal of the current cycle.
				res.CycleProbs[(t+1-a0)/s.fup] += mass * ps
			case last:
				discard += mass * ps
			default:
				next[h+1] += mass * ps
			}
			if last {
				discard += mass * (1 - ps)
			} else {
				next[h] += mass * (1 - ps)
			}
		}
		cur, next = next, cur
		clear(next)
	}
	res.DiscardProb = discard
	res.ExpectedAttempts = attempts

	// Sanity: all mass must be absorbed at the horizon.
	var absorbed float64
	for _, q := range res.CycleProbs {
		absorbed += q
	}
	absorbed += res.DiscardProb
	if diff := absorbed - 1; diff > 1e-9 || diff < -1e-9 {
		return nil, fmt.Errorf("pathmodel: mass %v not fully absorbed at horizon", absorbed)
	}
	return res, nil
}

// GoalTrajectories returns, for each goal state, its transient probability
// at every age 0..Is*Fup — the curves of the paper's Fig. 6. The returned
// slice is indexed [goal][age]. It steps the model's explicit chain, which
// it builds on each call.
func (m *Model) GoalTrajectories() ([][]float64, error) {
	c, err := m.chain()
	if err != nil {
		return nil, err
	}
	horizon := m.cfg.Is * m.cfg.Fup
	p0 := linalg.NewVector(c.kernel.NumStates())
	p0[c.initial] = 1
	// Goals are the state ids 0..G-1.
	out := make([][]float64, len(m.s.ages))
	for i := range out {
		out[i] = make([]float64, horizon+1)
	}
	_, err = c.kernel.Transient(p0, horizon, func(t int, dist linalg.Vector) error {
		for i := range out {
			out[i][t] = dist[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
