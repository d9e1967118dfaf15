package des

import (
	"fmt"
	"math/rand"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/link"
)

// LinkProcess generates a link's per-slot UP/DOWN trajectory during one
// reporting interval. Reset is called at the start of every interval; Up is
// then called exactly once per uplink slot in increasing slot order
// (1-based), mirroring the analytical model's availability functions.
type LinkProcess interface {
	Reset(rng *rand.Rand)
	Up(slot int, rng *rand.Rand) bool
}

// GilbertProcess simulates the paper's two-state link chain. The state at
// slot 0 is drawn from the configured initial distribution at every Reset,
// then evolves with p_fl/p_rc per slot.
type GilbertProcess struct {
	model   link.Model
	initUp  float64 // P(up at slot 0)
	up      bool
	curSlot int
}

// NewGilbertSteady returns a Gilbert process whose initial state is drawn
// from the stationary distribution — the paper's steady-state assumption.
func NewGilbertSteady(m link.Model) *GilbertProcess {
	return &GilbertProcess{model: m, initUp: m.SteadyUp()}
}

// Reset draws the slot-0 state.
func (g *GilbertProcess) Reset(rng *rand.Rand) {
	g.up = rng.Float64() < g.initUp
	g.curSlot = 0
}

// Up advances the chain to the requested slot and reports the state there.
// Slots must be requested in increasing order.
func (g *GilbertProcess) Up(slot int, rng *rand.Rand) bool {
	for g.curSlot < slot {
		if g.up {
			g.up = rng.Float64() >= g.model.FailureProb()
		} else {
			g.up = rng.Float64() < g.model.RecoveryProb()
		}
		g.curSlot++
	}
	return g.up
}

// HoppingProcess simulates the physical layer directly: every slot the link
// hops to a pseudo-random non-blacklisted channel and the message survives
// iff the per-channel binary symmetric channel introduces no bit error.
// This exercises the substitution for real 2.4 GHz interference: channel
// quality is heterogeneous and hopping averages over it.
type HoppingProcess struct {
	hop         *channel.HopSequence
	failureProb []float64 // per channel, p_fl = 1-(1-BER)^bits
}

// NewHoppingProcess builds a hopping link from per-channel linear Eb/N0
// values (length channel.NumChannels) and a message length in bits.
// blacklist may be nil.
func NewHoppingProcess(ebN0 []float64, bits int, blacklist *channel.Blacklist, rng *rand.Rand) (*HoppingProcess, error) {
	if len(ebN0) != channel.NumChannels {
		return nil, fmt.Errorf("des: need %d per-channel SNRs, got %d", channel.NumChannels, len(ebN0))
	}
	hop, err := channel.NewHopSequence(rng, blacklist)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(ebN0))
	for i, snr := range ebN0 {
		budget, err := channel.BudgetFromEbN0(snr, bits)
		if err != nil {
			return nil, fmt.Errorf("des: channel %d: %w", i, err)
		}
		probs[i] = budget.FailureProb
	}
	return &HoppingProcess{hop: hop, failureProb: probs}, nil
}

// Reset is a no-op: hopping has no per-interval state.
func (h *HoppingProcess) Reset(*rand.Rand) {}

// Up hops to the slot's channel and draws message survival.
func (h *HoppingProcess) Up(_ int, rng *rand.Rand) bool {
	ch, err := h.hop.Next()
	if err != nil {
		return false // every channel blacklisted: nothing can get through
	}
	return rng.Float64() >= h.failureProb[ch]
}

// ForcedWindowProcess wraps a base process, forcing the link DOWN inside
// the half-open uplink-slot window [from, to) of every reporting interval —
// the simulator counterpart of link.Blocked / DownDuring.
type ForcedWindowProcess struct {
	Base     LinkProcess
	From, To int
}

// Reset resets the base process.
func (f *ForcedWindowProcess) Reset(rng *rand.Rand) { f.Base.Reset(rng) }

// Up consults the base process but reports DOWN inside the window. The
// base is still advanced so its state evolution stays aligned.
func (f *ForcedWindowProcess) Up(slot int, rng *rand.Rand) bool {
	up := f.Base.Up(slot, rng)
	if slot >= f.From && slot < f.To {
		return false
	}
	return up
}

// Compile-time interface checks.
var (
	_ LinkProcess = (*GilbertProcess)(nil)
	_ LinkProcess = (*HoppingProcess)(nil)
	_ LinkProcess = (*ForcedWindowProcess)(nil)
)
