package measures

import (
	"errors"
	"fmt"

	"wirelesshart/internal/stats"
)

// RoundTrip models the full control loop of paper Section II: the sensory
// message travels uplink to the gateway, the PID block computes an output,
// and the output message travels downlink to the actuator. The paper's
// symmetric setup reuses the uplink path's cycle function for the
// downlink; Section V-A notes the loop then completes in one cycle with
// probability 0.4219^2 = 0.178.
type RoundTrip struct {
	// CycleProbs[k] is the probability that the loop completes with k+1
	// total cycles (uplink cycle m, downlink cycle n, k+1 = m+n-1).
	CycleProbs []float64
	// Completion is the probability the loop completes within the
	// reporting interval.
	Completion float64
}

// ComposeRoundTrip combines an uplink and a downlink cycle function into
// the loop-completion distribution, truncated to is cycles. The two
// directions are independent (separate frames and link states), so the
// composition is the same shifted convolution as path composition.
func ComposeRoundTrip(uplink, downlink []float64, is int) (*RoundTrip, error) {
	if len(uplink) == 0 || len(downlink) == 0 {
		return nil, errors.New("measures: empty cycle function")
	}
	if is < 1 {
		return nil, fmt.Errorf("measures: reporting interval %d must be positive", is)
	}
	cycles := convolveTruncated(uplink, downlink, is)
	rt := &RoundTrip{CycleProbs: cycles}
	for _, p := range cycles {
		rt.Completion += p
	}
	return rt, nil
}

// SymmetricRoundTrip is ComposeRoundTrip with the downlink mirroring the
// uplink — the paper's assumption.
func SymmetricRoundTrip(uplink []float64, is int) (*RoundTrip, error) {
	return ComposeRoundTrip(uplink, uplink, is)
}

// DelayDistribution converts the round-trip cycle distribution into a
// wall-clock delay PMF: a loop finishing in total cycle k has delay
// approximately k super-frames, i.e. k*(fup+fdown)*10 ms. It returns the
// normalized PMF over completed loops.
func (rt *RoundTrip) DelayDistribution(fup, fdown int) (*stats.PMF, error) {
	if fup < 1 || fdown < 0 {
		return nil, fmt.Errorf("measures: invalid frame sizes %d/%d", fup, fdown)
	}
	pmf := stats.NewPMF()
	pmf.Grow(len(rt.CycleProbs))
	frameMS := float64(fup+fdown) * 10
	for k, p := range rt.CycleProbs {
		pmf.Add(float64(k+1)*frameMS, p)
	}
	if err := pmf.Normalize(); err != nil {
		return nil, err
	}
	return pmf, nil
}
