package experiments

import (
	"io"

	"wirelesshart/internal/core"
	"wirelesshart/internal/schedule"
)

// MCRow summarizes the typical network under a channel count.
type MCRow struct {
	Channels  int
	Fup       int
	MeanDelay float64
	// BottleneckDelay is the worst per-path expected delay.
	BottleneckDelay float64
	// WorstReach is the lowest per-path reachability.
	WorstReach float64
}

// ComputeMultiChannel evaluates the typical network under 1..4 parallel
// frequency channels: the standard permits one transaction per channel per
// slot, so multi-channel schedules shrink the frame and with it every
// delay, while per-path reachability is unchanged (same number of attempts
// per reporting interval).
func ComputeMultiChannel() ([]MCRow, error) {
	ty, err := buildTypical()
	if err != nil {
		return nil, err
	}
	var out []MCRow
	for channels := 1; channels <= 4; channels++ {
		m, err := schedule.BuildMultiChannel(ty.Routes, schedule.ShortestFirst(ty.Routes), channels, 1)
		if err != nil {
			return nil, err
		}
		a, err := core.New(ty.Net, m)
		if err != nil {
			return nil, err
		}
		na, err := a.Analyze()
		if err != nil {
			return nil, err
		}
		row := MCRow{
			Channels:  channels,
			Fup:       m.Fup(),
			MeanDelay: na.OverallMeanDelayMS,
			WorstReach: func() float64 {
				worst := 1.0
				for _, pa := range na.Paths {
					if pa.Reachability < worst {
						worst = pa.Reachability
					}
				}
				return worst
			}(),
			BottleneckDelay: core.MaxExpectedDelay(na),
		}
		out = append(out, row)
	}
	return out, nil
}

// RunMultiChannel prints the multi-channel scheduling extension.
func RunMultiChannel(w io.Writer) error {
	rows, err := ComputeMultiChannel()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Multi-channel (TDMA+FDMA) schedules for the typical network (extension)\n")
	for _, r := range rows {
		pr.printf("channels=%d  Fup=%2d  E[Gamma]=%6.1f ms  bottleneck=%6.1f ms  worst R=%.4f\n",
			r.Channels, r.Fup, r.MeanDelay, r.BottleneckDelay, r.WorstReach)
	}
	pr.printf("reading: parallel channels shrink the frame toward the gateway-reception bound (10 slots), cutting both mean and bottleneck delays; reachability is schedule-independent\n")
	return pr.err
}
