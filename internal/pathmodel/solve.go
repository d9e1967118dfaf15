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

// initialDistribution returns the point mass on the initial state.
func (m *Model) initialDistribution() linalg.Vector {
	p0 := linalg.NewVector(m.s.NumStates())
	p0[m.s.initial] = 1
	return p0
}

// Solve runs the transient analysis p(t) = p(t-1) P to the end of the
// reporting interval and extracts the cycle probabilities, discard
// probability and exact expected attempt count. The step loop runs on the
// compiled kernel with two reused buffers and allocates nothing per step.
func (m *Model) Solve() (*Result, error) {
	horizon := m.cfg.Is * m.cfg.Fup
	p0 := m.initialDistribution()
	var attempts float64
	p, err := m.kernel.Transient(p0, horizon, func(t int, dist linalg.Vector) error {
		// Mass sitting in a transmitting state at time t attempts a
		// transmission during slot t+1; the final distribution makes no
		// further attempt.
		if t < horizon {
			for _, b := range m.s.binds {
				attempts += dist[b.state]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		CycleProbs: make([]float64, len(m.s.goals)),
		GoalAges:   m.GoalAges(),
		Fup:        m.cfg.Fup,
		Is:         m.cfg.Is,
		Hops:       len(m.cfg.Slots),
	}
	for i, id := range m.s.goals {
		res.CycleProbs[i] = p[id]
	}
	res.DiscardProb = p[m.s.discard]
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
// slice is indexed [goal][age].
func (m *Model) GoalTrajectories() ([][]float64, error) {
	horizon := m.cfg.Is * m.cfg.Fup
	p0 := m.initialDistribution()
	out := make([][]float64, len(m.s.goals))
	for i := range out {
		out[i] = make([]float64, horizon+1)
	}
	_, err := m.kernel.Transient(p0, horizon, func(t int, dist linalg.Vector) error {
		for i, id := range m.s.goals {
			out[i][t] = dist[id]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
