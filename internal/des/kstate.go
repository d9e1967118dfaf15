package des

import (
	"math/rand"

	"wirelesshart/internal/link"
)

// KStateProcess simulates a k-state Markov fading link directly: at every
// Reset the channel state is drawn from the configured initial
// distribution, per slot the state evolves through the k×k transition
// matrix, and each attempt succeeds with the current state's packet
// success probability. It is the independent cross-check of the analytic
// availability: over many intervals the empirical per-slot success
// fraction must converge to the chain's marginal.
type KStateProcess struct {
	trans   [][]float64
	succ    []float64
	init    []float64
	state   int
	curSlot int
}

// NewKStateSteady returns a fading process whose initial state is drawn
// from the chain's stationary distribution — the steady-state assumption
// of the paper's evaluation sections.
func NewKStateSteady(m *link.KState) *KStateProcess {
	return &KStateProcess{
		trans: m.TransitionMatrix(),
		succ:  m.SuccessProbs(),
		init:  m.StationaryDist(),
	}
}

// Reset draws the slot-0 channel state.
func (k *KStateProcess) Reset(rng *rand.Rand) {
	k.state = drawCategorical(k.init, rng)
	k.curSlot = 0
}

// Up advances the chain to the requested slot and draws the attempt's
// success from the state's packet success probability. Slots must be
// requested in increasing order.
func (k *KStateProcess) Up(slot int, rng *rand.Rand) bool {
	for k.curSlot < slot {
		k.state = drawCategorical(k.trans[k.state], rng)
		k.curSlot++
	}
	return rng.Float64() < k.succ[k.state]
}

// drawCategorical samples an index from an (approximately normalized)
// probability vector; rounding shortfall lands on the last index.
func drawCategorical(dist []float64, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// steadyProcess simulates a generic link process through its stationary
// marginal: every slot succeeds independently with the process's steady
// availability. It is the fallback of NewProcessSteady for process types
// without a dedicated simulator.
type steadyProcess struct {
	avail link.Availability
}

func (s *steadyProcess) Reset(*rand.Rand) {}

func (s *steadyProcess) Up(slot int, rng *rand.Rand) bool {
	return rng.Float64() < s.avail(slot)
}

// NewProcessSteady returns the simulator counterpart of a link process in
// its stationary regime: the two-state chain for a classic model, the
// fading chain for a k-state model, and an independent per-slot draw from
// the steady marginal for anything else.
func NewProcessSteady(p link.Process) LinkProcess {
	switch m := p.(type) {
	case link.Model:
		return NewGilbertSteady(m)
	case *link.KState:
		return NewKStateSteady(m)
	default:
		return &steadyProcess{avail: p.Steady()}
	}
}

// Compile-time interface checks.
var (
	_ LinkProcess = (*KStateProcess)(nil)
	_ LinkProcess = (*steadyProcess)(nil)
)
