package experiments

import (
	"io"

	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
)

// TTLRow is one TTL sweep entry for the example path.
type TTLRow struct {
	// TTL is the message time-to-live in uplink slots.
	TTL int
	// Reachability is R under this TTL.
	Reachability float64
	// ExpectedDelayMS is E[tau] over delivered messages.
	ExpectedDelayMS float64
	// UtilizationExact is the path's exact slot usage.
	UtilizationExact float64
}

// ComputeTTL sweeps the TTL of the Section V-A example path from one frame
// to the full reporting interval. The paper introduces the TTL mechanism
// (Section II-B: out-dated messages "are not useful for real-time
// monitoring and control") but never evaluates the knob; this extension
// quantifies the freshness-vs-reachability trade-off it controls.
func ComputeTTL() ([]TTLRow, error) {
	var out []TTLRow
	for _, ttl := range []int{7, 14, 21, 28} {
		m, err := examplePathModel(0.75, 4)
		if err != nil {
			return nil, err
		}
		cfg := m.Config()
		cfg.TTL = ttl
		bounded, err := pathmodel.Build(cfg)
		if err != nil {
			return nil, err
		}
		res, err := bounded.Solve()
		if err != nil {
			return nil, err
		}
		row := TTLRow{
			TTL:              ttl,
			Reachability:     res.Reachability(),
			UtilizationExact: measures.UtilizationExact(res),
		}
		if res.Reachability() > 0 {
			e, err := measures.ExpectedDelayMS(res, 7)
			if err != nil {
				return nil, err
			}
			row.ExpectedDelayMS = e
		}
		out = append(out, row)
	}
	return out, nil
}

// RunTTL prints the TTL sweep.
func RunTTL(w io.Writer) error {
	rows, err := ComputeTTL()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Message TTL sweep on the example path, Is=4, pi(up)=0.75 (extension of Section II-B)\n")
	for _, r := range rows {
		pr.printf("TTL=%2d slots: R=%.4f  E[tau]=%5.1f ms  utilization=%.4f\n",
			r.TTL, r.Reachability, r.ExpectedDelayMS, r.UtilizationExact)
	}
	pr.printf("reading: a tighter TTL guarantees fresher data (lower E[tau]) and frees register/slot resources, at the cost of reachability — the quantitative form of the paper's freshness argument\n")
	return pr.err
}
