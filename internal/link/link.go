// Package link implements the paper's two-state DTMC link model (Section
// III, Fig. 3): a wireless link is UP or DOWN per slot, failing with
// probability p_fl and recovering with probability p_rc thanks to channel
// hopping. The package derives link parameters from the physical layer
// (BER, Eb/N0) and exposes per-slot availability functions that drive the
// path model, including the failure-injection modes of Section VI-C.
package link

import (
	"fmt"
	"math"

	"wirelesshart/internal/channel"
)

// DefaultRecoveryProb is the paper's choice for p_rc: channel hopping makes
// the next slot's channel almost surely healthy, "very close to 1, but not
// equal to 1"; the evaluation uses 0.9 throughout.
const DefaultRecoveryProb = 0.9

// Model is an immutable two-state link model with failure probability PFl
// (UP -> DOWN) and recovery probability PRc (DOWN -> UP).
type Model struct {
	pfl, prc float64
}

// New validates and returns a link model. p_fl must lie in [0,1] and p_rc
// in (0,1]: a link that can never recover is modeled with a permanent
// failure injection instead (see PermanentDown).
func New(pfl, prc float64) (Model, error) {
	if math.IsNaN(pfl) || pfl < 0 || pfl > 1 {
		return Model{}, fmt.Errorf("link: failure probability %v out of [0,1]", pfl)
	}
	if math.IsNaN(prc) || prc <= 0 || prc > 1 {
		return Model{}, fmt.Errorf("link: recovery probability %v out of (0,1]", prc)
	}
	return Model{pfl: pfl, prc: prc}, nil
}

// FromBER builds the model from a bit error rate and a message length,
// using the paper's Eq. (2): p_fl = 1-(1-BER)^bits.
func FromBER(ber float64, bits int, prc float64) (Model, error) {
	pfl, err := channel.MessageFailureProb(ber, bits)
	if err != nil {
		return Model{}, err
	}
	return New(pfl, prc)
}

// FromEbN0 builds the model from a linear Eb/N0 via the OQPSK BER curve
// (paper Eqs. 1-2). This is the pipeline used for routing prediction in
// Section VI-E.
func FromEbN0(ebN0 float64, bits int, prc float64) (Model, error) {
	budget, err := channel.BudgetFromEbN0(ebN0, bits)
	if err != nil {
		return Model{}, err
	}
	return New(budget.FailureProb, prc)
}

// FromAvailability builds the model whose steady-state availability is
// avail, given a recovery probability: p_fl = p_rc (1-avail)/avail. This is
// how the paper parameterizes its sweeps (π(up) = 0.693 ... 0.948).
func FromAvailability(avail, prc float64) (Model, error) {
	if math.IsNaN(avail) || avail <= 0 || avail > 1 {
		return Model{}, fmt.Errorf("link: availability %v out of (0,1]", avail)
	}
	return New(prc*(1-avail)/avail, prc)
}

// FailureProb returns p_fl.
func (m Model) FailureProb() float64 { return m.pfl }

// RecoveryProb returns p_rc.
func (m Model) RecoveryProb() float64 { return m.prc }

// SteadyUp returns the stationary availability π(up) = p_rc/(p_rc+p_fl)
// (paper Eq. 4).
func (m Model) SteadyUp() float64 {
	if m.pfl == 0 {
		return 1
	}
	return m.prc / (m.prc + m.pfl)
}

// TransientUp returns P(up at slot t) given P(up at slot 0) = u0, using the
// closed form of the two-state chain: pi(t) = pi(inf) + (u0-pi(inf)) l^t
// with l = 1 - p_fl - p_rc (paper Eq. 3 specialized).
func (m Model) TransientUp(u0 float64, t int) float64 {
	if t < 0 {
		t = 0
	}
	steady := m.SteadyUp()
	lambda := 1 - m.pfl - m.prc
	return steady + (u0-steady)*math.Pow(lambda, float64(t))
}

// Autocorrelation returns the lag-k autocorrelation of the stationary UP
// indicator: corr(X_t, X_{t+k}) = lambda^k with lambda = 1-p_fl-p_rc.
// Near-zero values mean consecutive attempts are effectively independent —
// the property that makes the steady-state analysis accurate.
func (m Model) Autocorrelation(k int) float64 {
	if k < 0 {
		k = -k
	}
	return math.Pow(1-m.pfl-m.prc, float64(k))
}

// Availability is a per-slot link availability: UpProb(t) is the
// probability that the link is UP during uplink slot t (t counts uplink
// slots from the start of the reporting interval, starting at 1 to match
// the paper's age convention). Implementations must be safe for repeated
// calls with arbitrary non-negative t.
type Availability func(slot int) float64

// Steady returns the availability of a link that has reached steady state
// before the reporting interval begins — the assumption of the paper's
// evaluation sections.
func (m Model) Steady() Availability {
	steady := m.SteadyUp()
	return func(int) float64 { return steady }
}
