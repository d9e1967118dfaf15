package fleet

import (
	"context"
	"fmt"

	"wirelesshart/internal/spec"
)

// FailureSweep configures the optional per-network robustness sweep:
// every link of every generated network is failed in turn with a window
// failure, and all single-link scenarios are evaluated as one engine
// batch, so their paths share cached structures: a failed-link path pays
// one value bind and one sweep instead of an Algorithm 1 build.
type FailureSweep struct {
	// FromSlot and ToSlot bound the injected failure: the failed link is
	// DOWN during uplink slots [FromSlot, ToSlot) of each reporting
	// interval.
	FromSlot int
	ToSlot   int
}

func (f *FailureSweep) validate() error {
	if f.FromSlot < 0 || f.ToSlot <= f.FromSlot {
		return fmt.Errorf("fleet: failure sweep window [%d, %d) is empty", f.FromSlot, f.ToSlot)
	}
	return nil
}

// sweepFailures stresses one generated network: each of its links gets
// the configured window failure in a cloned spec, the clones are solved
// through Engine.EvaluateBatch, and the worst- and mean-case measures
// land on the network's report row.
func (r *Runner) sweepFailures(ctx context.Context, base *spec.Spec, out *NetworkResult) error {
	fsw := r.cfg.FailureSweep
	scenarios := make([]*spec.Spec, len(base.Links))
	for i := range base.Links {
		c := *base
		c.Links = append([]spec.Link(nil), base.Links...)
		c.Links[i].Failure = &spec.Failure{Kind: "window", FromSlot: fsw.FromSlot, ToSlot: fsw.ToSlot}
		scenarios[i] = &c
	}
	results, err := r.eng.EvaluateBatch(ctx, scenarios)
	if err != nil {
		return err
	}
	r.metrics.failureScenarios.Add(int64(len(results)))
	out.FailureScenarios = len(results)
	worst, sum, minReach := 0.0, 0.0, 1.0
	for _, res := range results {
		if res.OverallMeanDelayMS > worst {
			worst = res.OverallMeanDelayMS
		}
		sum += res.OverallMeanDelayMS
		for _, p := range res.Paths {
			if p.Reachability < minReach {
				minReach = p.Reachability
			}
		}
	}
	out.WorstFailureDelayMS = worst
	out.MeanFailureDelayMS = sum / float64(len(results))
	out.WorstFailureMinReachability = minReach
	return nil
}
