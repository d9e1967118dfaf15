package experiments

import (
	"io"
	"math"
	"strconv"

	"wirelesshart/internal/des"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// fadingAvail is the matched steady availability of every fading sweep
// point — the paper's BER 2e-4 operating point, so the analytic columns
// line up with Fig. 13.
const fadingAvail = 0.83

// FadingRow compares the analytic path model against the DES for one
// burstiness level of a k=3 fading chain at matched steady availability.
type FadingRow struct {
	// Label identifies the sweep point ("2-state" for the classic
	// baseline, otherwise the stay probability).
	Label string
	// Stay is the per-state self-transition probability (NaN for the
	// baseline).
	Stay float64
	// Lambda2 is the chain's second eigenvalue — its memory: lag-t state
	// correlation decays as Lambda2^t.
	Lambda2 float64
	// AnalyticReach and SimReach are mean per-path reachabilities over
	// the typical network.
	AnalyticReach float64
	SimReach      float64
	// WorstGap is the largest per-path |analytic - simulated|.
	WorstGap float64
}

// fadingChain builds the k=3 uniform-mixing chain at the given stay
// probability with success probabilities {0.66, 0.83, 1.0} — mean (and,
// by the uniform stationary distribution, steady availability) exactly
// fadingAvail for every stay.
func fadingChain(stay float64) (*link.KState, error) {
	spread := 1 - fadingAvail
	return link.NewUniformMixing(stay, []float64{
		fadingAvail - spread, fadingAvail, fadingAvail + spread,
	})
}

// ComputeFading sweeps the burstiness of a k=3 fading chain over the
// typical network at fixed steady availability. The analytic model
// consumes only per-slot marginals, so its column is constant across the
// sweep; the DES simulates the chain itself, and the growing gap as stay
// approaches 1 measures what the per-slot-independence assumption hides.
func ComputeFading(stays []float64, intervals int, seed int64) ([]FadingRow, error) {
	baseline, err := link.FromAvailability(fadingAvail, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	rows := []FadingRow{{
		Label:   "2-state",
		Stay:    math.NaN(),
		Lambda2: baseline.Autocorrelation(1),
	}}
	avail := fadingAvail
	// One link declaration per sweep point, applied to every link.
	decls := []spec.Link{{Availability: &avail}}
	for _, stay := range stays {
		chain, err := fadingChain(stay)
		if err != nil {
			return nil, err
		}
		decls = append(decls, spec.Link{Fading: &spec.Fading{
			Transitions: chain.TransitionMatrix(),
			Success:     chain.SuccessProbs(),
		}})
		// Uniform mixing: the non-unit eigenvalues are all stay - off.
		k := float64(chain.States())
		rows = append(rows, FadingRow{
			Label:   formatStay(stay),
			Stay:    stay,
			Lambda2: (k*stay - 1) / (k - 1),
		})
	}
	for i, decl := range decls {
		s := spec.TypicalSpec()
		for j := range s.Links {
			s.Links[j].Availability, s.Links[j].Fading = decl.Availability, decl.Fading
		}
		b, err := s.Build()
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
		var anaSum, simSum, worst float64
		n := 0
		for _, pa := range na.Paths {
			sp, ok := sim.PathBySource(pa.Source)
			if !ok {
				return nil, errMissing("simulated path")
			}
			anaSum += pa.Reachability
			simSum += sp.Reachability()
			if d := math.Abs(pa.Reachability - sp.Reachability()); d > worst {
				worst = d
			}
			n++
		}
		rows[i].AnalyticReach = anaSum / float64(n)
		rows[i].SimReach = simSum / float64(n)
		rows[i].WorstGap = worst
	}
	return rows, nil
}

// RunFading prints the burstiness sweep.
func RunFading(w io.Writer) error {
	rows, err := ComputeFading([]float64{0.3, 0.6, 0.9, 0.97}, 8000, 23)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("k=3 fading chains at steady availability %.2f, typical network, 8000 reporting intervals\n", fadingAvail)
	pr.printf("%-8s %8s %14s %12s %10s\n", "stay", "lambda2", "R analytic", "R sim", "worst gap")
	for _, r := range rows {
		pr.printf("%-8s %8.3f %14.4f %12.4f %10.4f\n",
			r.Label, r.Lambda2, r.AnalyticReach, r.SimReach, r.WorstGap)
	}
	pr.printf("reading: the analytic column only sees per-slot marginals, so it is flat across the sweep; the simulated reachability drops as the chain's memory (lambda2) grows — the deviation a bursty channel induces under the model's per-slot-independence assumption\n")
	return pr.err
}

// formatStay renders a stay probability as a compact row label.
func formatStay(stay float64) string {
	return strconv.FormatFloat(stay, 'g', -1, 64)
}
