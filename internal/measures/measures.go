// Package measures derives the paper's quality-of-service measures
// (Section V) from solved path models: reachability, delay distribution
// and expectation, utilization (exact and closed-form), network-level
// aggregation (Section VI-A), and path composition by convolution of cycle
// probability functions (Section V-D / VI-E).
package measures

import (
	"errors"
	"fmt"

	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/stats"
)

// ErrNoDelivery is returned by aggregate delay measures when no path
// delivers any message (e.g. after a permanent failure severs the whole
// network).
var ErrNoDelivery = errors.New("measures: no path delivers any message")

// Reachability returns R (paper Eq. 6): the probability that the message
// reaches the gateway within its reporting interval.
func Reachability(res *pathmodel.Result) float64 { return res.Reachability() }

// ExpectedIntervalsToFirstLoss returns E[N] = 1/(1-R), the expected number
// of reporting intervals until the first message loss (geometric, paper
// Section V). R = 1 yields an error (no loss ever).
func ExpectedIntervalsToFirstLoss(r float64) (float64, error) {
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("measures: reachability %v out of [0,1]", r)
	}
	// r > 1 was rejected above, so >= catches exactly r == 1 without a raw
	// floating-point equality.
	if r >= 1 {
		return 0, errors.New("measures: reachability is 1, messages are never lost")
	}
	return stats.GeometricMean(1 - r)
}

// DelayMS converts an arrival in cycle i (1-based) at age ai (uplink slots)
// to the paper's wall-clock delay (Eq. 7 with cumulative downlink time):
// d_i = (a_i + (i-1)*Fdown) * 10 ms. The message sleeps through i-1
// downlink frames before arriving in cycle i.
func DelayMS(ai, cycle, fdown int) float64 {
	return float64(ai+(cycle-1)*fdown) * schedule.SlotDurationMS
}

// DelayDistribution returns the normalized delay PMF tau over received
// messages (paper Eq. 8): tau(d_i) = p_i / R, with delays in milliseconds.
// fdown is the downlink frame size in slots (the paper's symmetric setup
// uses fdown = Fup). A path with zero reachability has no delay
// distribution and yields an error.
func DelayDistribution(res *pathmodel.Result, fdown int) (*stats.PMF, error) {
	if fdown < 0 {
		return nil, fmt.Errorf("measures: negative downlink frame %d", fdown)
	}
	pmf := rawDelays(res, fdown)
	if err := pmf.Normalize(); err != nil {
		return nil, err
	}
	return pmf, nil
}

// rawDelays returns the unnormalized delay PMF for a valid fdown: mass at
// d_i equals the cycle probability, total mass equals R. This is the form
// averaged into the paper's network-wide Fig. 14. A path's goal ages
// strictly increase, so its delays ascend and each Add appends.
func rawDelays(res *pathmodel.Result, fdown int) *stats.PMF {
	pmf := stats.NewPMF()
	pmf.Grow(len(res.CycleProbs))
	for i, p := range res.CycleProbs {
		pmf.Add(DelayMS(res.GoalAges[i], i+1, fdown), p)
	}
	return pmf
}

// ExpectedDelayMS returns E[tau] (paper Eq. 9) in milliseconds.
func ExpectedDelayMS(res *pathmodel.Result, fdown int) (float64, error) {
	pmf, err := DelayDistribution(res, fdown)
	if err != nil {
		return 0, err
	}
	return pmf.Mean(), nil
}

// UtilizationExact returns the fraction of reporting-interval slots in
// which this path actually attempted a transmission, using the exact
// expected attempt count from the DTMC: U_p = E[attempts] / (Is * Fup).
func UtilizationExact(res *pathmodel.Result) float64 {
	return res.ExpectedAttempts / float64(res.Is*res.Fup)
}

// UtilizationClosedForm returns the paper's Eq. (10) with the slot count
// per outcome corrected to n+i-1 (n successful hops plus i-1 retransmitted
// failures; the paper prints n+i but its Table II matches n+i-1):
//
//	U_p = [ sum_i P(a_i)(n+i-1) + (1-R)(n+Is-1) ] / (Is*Fup)
//
// Set literal to true to evaluate the formula exactly as printed (n+i).
func UtilizationClosedForm(res *pathmodel.Result, literal bool) float64 {
	adj := -1
	if literal {
		adj = 0
	}
	n := res.Hops
	var num float64
	for i, p := range res.CycleProbs {
		num += p * float64(n+(i+1)+adj)
	}
	num += (1 - res.Reachability()) * float64(n+res.Is+adj)
	return num / float64(res.Is*res.Fup)
}

// NetworkUtilization sums per-path utilizations (paper Eq. 11).
func NetworkUtilization(utils []float64) float64 {
	var sum float64
	for _, u := range utils {
		sum += u
	}
	return sum
}

// OverallDelay averages the unnormalized per-path delay distributions into
// the network-wide delay distribution Gamma of Fig. 14: the value at d is
// the fraction of all generated messages (across paths, including lost
// ones) that arrive with delay d.
func OverallDelay(results []*pathmodel.Result, fdown int) (*stats.PMF, error) {
	if len(results) == 0 {
		return nil, errors.New("measures: no paths to aggregate")
	}
	if fdown < 0 {
		return nil, fmt.Errorf("measures: negative downlink frame %d", fdown)
	}
	// A path's goal ages strictly increase, so its delays ascend. Merging
	// the paths' delay lists hands Add every point in ascending order, so
	// each Add appends or accumulates on the last point, and equal delays
	// in path order, so each point sums p*w in the order of adding path by
	// path — the same bits as merging scaled raw distributions (rawDelays).
	w := 1 / float64(len(results))
	h := make(delayHeap, 0, len(results))
	n := 0
	for p, res := range results {
		n += len(res.CycleProbs)
		if len(res.CycleProbs) > 0 {
			h = append(h, delayCursor{delay: DelayMS(res.GoalAges[0], 1, fdown), path: p})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := stats.NewPMF()
	out.Grow(n)
	for len(h) > 0 {
		c := &h[0]
		res := results[c.path]
		out.Add(c.delay, res.CycleProbs[c.cycle]*w)
		if c.cycle++; c.cycle < len(res.CycleProbs) {
			c.delay = DelayMS(res.GoalAges[c.cycle], c.cycle+1, fdown)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return out, nil
}

// delayCursor is a path's next point in OverallDelay's merge: the delay
// of its cycle (0-based).
type delayCursor struct {
	delay       float64
	path, cycle int
}

// delayHeap is a binary min-heap of the paths' cursors, ordered by delay
// and then by path.
type delayHeap []delayCursor

func (h delayHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	return a.delay < b.delay || !(b.delay < a.delay) && a.path < b.path
}

// down moves h[i] down until neither child is less than it.
func (h delayHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// OverallMeanDelayMS returns E[Gamma] (paper Eq. 13): the average of the
// per-path expected delays E[tau] (ExpectedDelayMS), in path order. Paths
// with zero reachability deliver no messages and have no delay, so the
// caller leaves them out; if no path delivers anything, ErrNoDelivery is
// returned.
func OverallMeanDelayMS(expected []float64) (float64, error) {
	if len(expected) == 0 {
		return 0, ErrNoDelivery
	}
	var sum float64
	for _, e := range expected {
		sum += e
	}
	return sum / float64(len(expected)), nil
}

// MinReportingInterval returns the smallest reporting interval Is (in
// super-frames) for which an n-hop homogeneous steady-state path reaches
// the target reachability, probing up to maxIs. It inverts the paper's
// Section VI-D trade-off: a longer interval means fewer, surer messages.
// It returns an error if even maxIs falls short (e.g. target 1 with lossy
// links, which no finite interval achieves).
func MinReportingInterval(hops int, avail, targetR float64, maxIs int) (int, error) {
	if targetR <= 0 || targetR > 1 {
		return 0, fmt.Errorf("measures: target reachability %v out of (0,1]", targetR)
	}
	if maxIs < 1 {
		return 0, fmt.Errorf("measures: maxIs %d must be positive", maxIs)
	}
	for is := 1; is <= maxIs; is++ {
		r, err := stats.NegBinomialReachability(hops, avail, is)
		if err != nil {
			return 0, err
		}
		if r >= targetR {
			return is, nil
		}
	}
	return 0, fmt.Errorf("measures: target %v unreachable within Is <= %d (R(%d) < target)",
		targetR, maxIs, maxIs)
}

// CycleFunction returns the cycle probability function g(x) of a solved
// path as a 0-based slice: g[i] = P(arrive in cycle i+1).
func CycleFunction(res *pathmodel.Result) []float64 {
	out := make([]float64, len(res.CycleProbs))
	copy(out, res.CycleProbs)
	return out
}

// ComposeCycles implements the paper's Eq. (12): the cycle probability
// function of a composed path is the time-shifted convolution of the peer
// and existing paths' cycle functions — a message finishing the peer path
// in cycle m and the existing path in n cycles arrives in cycle m+n-1. The
// result is truncated to is cycles (later arrivals fall outside the
// reporting interval and are lost).
func ComposeCycles(peer, existing []float64, is int) ([]float64, error) {
	if len(peer) == 0 || len(existing) == 0 {
		return nil, errors.New("measures: empty cycle function")
	}
	if is < 1 {
		return nil, fmt.Errorf("measures: reporting interval %d must be positive", is)
	}
	return convolveTruncated(peer, existing, is), nil
}

// ComposedTieTolerance is the reachability difference below which two
// composed paths count as equally reachable; the paper's Table IV treats
// 99.45% vs 99.45% as a tie and decides on delay instead. Each extra hop
// costs at least one more schedule slot (~10 ms), so hop count is the delay
// proxy used to break such ties.
const ComposedTieTolerance = 5e-4

// BetterComposed reports whether a composed path with reachability r1 over
// h1 hops should rank above one with r2 over h2 hops: higher reachability
// wins, and reachabilities within tol of each other are tied and decided
// by the shorter path (Section VI-E's routing-choice rule).
func BetterComposed(r1 float64, h1 int, r2 float64, h2 int, tol float64) bool {
	if diff := r1 - r2; diff > tol || diff < -tol {
		return r1 > r2
	}
	return h1 < h2
}

// CycleReachability sums a cycle probability function into a reachability.
func CycleReachability(g []float64) float64 {
	var sum float64
	for _, p := range g {
		sum += p
	}
	return sum
}
