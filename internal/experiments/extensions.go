package experiments

import (
	"io"
	"math"

	"wirelesshart/internal/control"
	"wirelesshart/internal/des"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/stats"
)

// XValRow compares one path's analytic and simulated measures.
type XValRow struct {
	PathNumber    int
	Hops          int
	AnalyticReach float64
	SimReach      float64
	SimReachCI    float64
	AnalyticDelay float64
	SimDelay      float64
	SimDelayCI    float64
}

// ComputeXVal runs the DES on the typical network and compares it with the
// analytical model path by path.
func ComputeXVal(intervals int, seed int64) ([]XValRow, error) {
	b, err := spec.TypicalSpec().Build() // BER 2e-4 on every link
	if err != nil {
		return nil, err
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		return nil, err
	}
	sim, err := des.Run(des.Config{
		Net:       b.Net,
		Sched:     b.Schedule,
		Is:        4,
		Intervals: intervals,
		Seed:      seed,
		Fdown:     -1,
		Links:     b.SimLinks(),
	})
	if err != nil {
		return nil, err
	}
	var rows []XValRow
	for i, pa := range na.Paths {
		sp, ok := sim.PathBySource(pa.Source)
		if !ok {
			return nil, errMissing("simulated path")
		}
		ci, err := sp.ReachabilityCI()
		if err != nil {
			return nil, err
		}
		delayCI, err := sp.DelaySummary.ConfidenceInterval(stats.Z95)
		if err != nil {
			return nil, err
		}
		rows = append(rows, XValRow{
			PathNumber:    i + 1,
			Hops:          pa.Path.Hops(),
			AnalyticReach: pa.Reachability,
			SimReach:      sp.Reachability(),
			SimReachCI:    ci,
			AnalyticDelay: pa.ExpectedDelayMS,
			SimDelay:      sp.DelaySummary.Mean(),
			SimDelayCI:    delayCI,
		})
	}
	return rows, nil
}

// RunXVal prints the cross-validation table.
func RunXVal(w io.Writer) error {
	rows, err := ComputeXVal(20000, 101)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("DES vs analytical model, typical network, 20000 reporting intervals\n")
	worst := 0.0
	for _, r := range rows {
		diff := math.Abs(r.AnalyticReach - r.SimReach)
		if diff > worst {
			worst = diff
		}
		pr.printf("path %2d (%d hops): R analytic=%.4f sim=%.4f (+-%.4f)  E[tau] analytic=%.1f sim=%.1f\n",
			r.PathNumber, r.Hops, r.AnalyticReach, r.SimReach, r.SimReachCI, r.AnalyticDelay, r.SimDelay)
	}
	pr.printf("largest |analytic - simulated| reachability gap: %.4f\n", worst)
	return pr.err
}

// CtrlRow is one control-loop stability entry.
type CtrlRow struct {
	Avail     float64
	Reach     float64
	ISE       float64
	Lost      int
	Delivered int
}

// ComputeCtrl runs the PID loop over the 3-hop example path's delivery
// process for each availability.
func ComputeCtrl(intervals int) ([]CtrlRow, error) {
	var out []CtrlRow
	for _, pa := range PaperAvailabilities {
		m, err := examplePathModel(pa.Avail, 4, 0)
		if err != nil {
			return nil, err
		}
		res, err := m.Solve()
		if err != nil {
			return nil, err
		}
		pid, err := control.NewPID(1.5, 1.2, 0, -10, 10)
		if err != nil {
			return nil, err
		}
		// A plant faster than the reporting interval under recurring load
		// steps: the regime where lost samples cost tracking error.
		plant, err := control.NewFirstOrderPlant(1, 0.4)
		if err != nil {
			return nil, err
		}
		lr, err := control.RunLoop(control.LoopConfig{
			PID:        pid,
			Plant:      plant,
			Setpoint:   1,
			PeriodS:    0.28, // Is*Fup*2*10ms = 560ms up+down; uplink-only period 280ms
			Intervals:  intervals,
			CycleProbs: measures.CycleFunction(res),
			Seed:       31,
			Disturbance: func(i int) float64 {
				if i > 0 && i%3 == 0 {
					return -0.5
				}
				return 0
			},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, CtrlRow{
			Avail:     pa.Avail,
			Reach:     res.Reachability(),
			ISE:       lr.ISE,
			Lost:      lr.Lost,
			Delivered: lr.Delivered,
		})
	}
	return out, nil
}

// RunCtrl prints the control-loop stability sweep.
func RunCtrl(w io.Writer) error {
	rows, err := ComputeCtrl(2000)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Control-loop stability vs link availability (paper future work)\n")
	for _, r := range rows {
		pr.printf("pi(up)=%.3f R=%.4f: ISE=%.3f lost=%d delivered=%d\n",
			r.Avail, r.Reach, r.ISE, r.Lost, r.Delivered)
	}
	pr.printf("takeaway: tracking error grows as reachability falls — the paper's stability concern quantified\n")
	return pr.err
}
