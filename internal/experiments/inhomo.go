package experiments

import (
	"io"
	"math"
	"math/rand"

	"wirelesshart/internal/spec"
)

// InhomoRow compares one path under true per-link qualities vs the
// homogeneous-average approximation.
type InhomoRow struct {
	PathNumber int
	Hops       int
	// TrueReach uses each link's own BER.
	TrueReach float64
	// HomogReach uses the network-average availability on every link.
	HomogReach float64
	// Error is HomogReach - TrueReach.
	Error float64
	// TrueDelayMS and HomogDelayMS are the expected delays under the two
	// treatments; delay is far more sensitive to heterogeneity than
	// reachability because retransmissions mask losses but not lateness.
	TrueDelayMS, HomogDelayMS float64
}

// ComputeInhomo draws per-link BERs (log-uniform between 1e-5 and 1e-3,
// seeded) for the typical network and compares the exact inhomogeneous
// analysis with the homogeneous approximation that uses the average
// availability everywhere — quantifying why the paper's per-link physical
// layer matters.
func ComputeInhomo(seed int64) ([]InhomoRow, error) {
	rng := rand.New(rand.NewSource(seed))

	// Per-link heterogeneous BERs, drawn in link declaration order.
	trueSpec := spec.TypicalSpec()
	for i := range trueSpec.Links {
		// Log-uniform BER over two decades, [1e-5, 1e-3].
		ber := 1e-5 * math.Pow(10, 2*rng.Float64())
		trueSpec.Links[i].BER = &ber
	}
	trueBuilt, err := trueSpec.Build()
	if err != nil {
		return nil, err
	}
	var availSum float64
	links := trueBuilt.Net.Links()
	for _, l := range links {
		availSum += trueBuilt.Analyzer.LinkProcess(l.ID).SteadyUp()
	}
	avgAvail := availSum / float64(len(links))

	trueNA, err := trueBuilt.Analyzer.Analyze()
	if err != nil {
		return nil, err
	}
	homogNA, err := analyze(typicalSpec(avgAvail))
	if err != nil {
		return nil, err
	}

	var rows []InhomoRow
	for i, tr := range trueNA.Paths {
		ho := homogNA.Paths[i]
		rows = append(rows, InhomoRow{
			PathNumber:   i + 1,
			Hops:         tr.Path.Hops(),
			TrueReach:    tr.Reachability,
			HomogReach:   ho.Reachability,
			Error:        ho.Reachability - tr.Reachability,
			TrueDelayMS:  tr.ExpectedDelayMS,
			HomogDelayMS: ho.ExpectedDelayMS,
		})
	}
	return rows, nil
}

// RunInhomo prints the inhomogeneous-vs-homogeneous comparison.
func RunInhomo(w io.Writer) error {
	rows, err := ComputeInhomo(515151)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Inhomogeneous links vs homogeneous-average approximation (extension)\n")
	var worst, worstDelay float64
	for _, r := range rows {
		if e := math.Abs(r.Error); e > worst {
			worst = e
		}
		if e := math.Abs(r.TrueDelayMS - r.HomogDelayMS); e > worstDelay {
			worstDelay = e
		}
		pr.printf("path %2d (%d hops): R true=%.4f avg=%.4f (err %+.4f) | E[tau] true=%5.1f avg=%5.1f ms\n",
			r.PathNumber, r.Hops, r.TrueReach, r.HomogReach, r.Error, r.TrueDelayMS, r.HomogDelayMS)
	}
	pr.printf("largest errors: reachability %.4f, expected delay %.1f ms — averaging away per-link quality misjudges individual paths (delays especially), which is why the paper models each link's physical layer explicitly\n", worst, worstDelay)
	return pr.err
}
