package experiments

import (
	"io"
	"sort"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// RunFig12 prints the typical network's connectivity and routes.
func RunFig12(w io.Writer) error {
	a, err := spec.TypicalSpec().Build()
	if err != nil {
		return err
	}
	b, err := withEtaB(spec.TypicalSpec()).Build()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Typical WirelessHART network (paper Fig. 12): 30%% 1-hop, 50%% 2-hop, 20%% 3-hop\n")
	for i, src := range a.Analyzer.Sources() {
		p, _ := a.Analyzer.Route(src)
		pr.printf("path %2d: %s (%d hops)\n", i+1, p.Format(a.Net), p.Hops())
	}
	pr.printf("schedule eta_a = %s\n", a.Schedule.Format(a.Net))
	pr.printf("schedule eta_b (reconstructed) = %s\n", b.Schedule.Format(b.Net))
	return pr.err
}

// Fig13Row is one path's reachability across availabilities.
type Fig13Row struct {
	PathNumber int
	Hops       int
	// ReachByAvail is keyed in the order of availabilities given to
	// ComputeFig13.
	ReachByAvail []float64
}

// ComputeFig13 evaluates per-path reachability for the given stationary
// availabilities under eta_a.
func ComputeFig13(avails []float64) ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, avail := range avails {
		na, err := analyze(typicalSpec(avail))
		if err != nil {
			return nil, err
		}
		for i, pa := range na.Paths {
			if i == len(rows) {
				rows = append(rows, Fig13Row{PathNumber: i + 1, Hops: pa.Path.Hops()})
			}
			rows[i].ReachByAvail = append(rows[i].ReachByAvail, pa.Reachability)
		}
	}
	return rows, nil
}

// Fig13Avails is the availability set the paper plots in Fig. 13.
var Fig13Avails = []float64{0.903, 0.83, 0.774, 0.693}

// RunFig13 prints the per-path reachability matrix.
func RunFig13(w io.Writer) error {
	rows, err := ComputeFig13(Fig13Avails)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Per-path reachability in the typical network (paper Fig. 13)\n")
	pr.printf("path hops")
	for _, a := range Fig13Avails {
		pr.printf("  pi=%.3f", a)
	}
	pr.printf("\n")
	for _, r := range rows {
		pr.printf("%4d %4d", r.PathNumber, r.Hops)
		for _, v := range r.ReachByAvail {
			pr.printf("  %.4f ", v)
		}
		pr.printf("\n")
	}
	pr.printf("paper anchors: R>0.999 for 3-hop at pi=0.9; R~0.93 at pi=0.69\n")
	return pr.err
}

// Fig14Data is the overall delay distribution.
type Fig14Data struct {
	DelayMS []float64
	Prob    []float64
	// Cum200/600/1000 are the cumulative fractions the paper quotes.
	Cum200, Cum600, Cum1000 float64
	MeanMS                  float64
}

// ComputeFig14 derives the network-wide delay distribution under eta_a at
// the paper's default availability.
func ComputeFig14() (*Fig14Data, error) {
	na, err := analyze(spec.TypicalSpec())
	if err != nil {
		return nil, err
	}
	d := &Fig14Data{
		Cum200:  na.OverallDelay.CDFAt(200),
		Cum600:  na.OverallDelay.CDFAt(600),
		Cum1000: na.OverallDelay.CDFAt(1000),
		MeanMS:  na.OverallMeanDelayMS,
	}
	for _, x := range na.OverallDelay.Support() {
		d.DelayMS = append(d.DelayMS, x)
		d.Prob = append(d.Prob, na.OverallDelay.Prob(x))
	}
	return d, nil
}

// RunFig14 prints the overall delay distribution.
func RunFig14(w io.Writer) error {
	d, err := ComputeFig14()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Overall delay distribution of the typical network (paper Fig. 14)\n")
	for i := range d.DelayMS {
		pr.printf("delay %5.0f ms: %.4f\n", d.DelayMS[i], d.Prob[i])
	}
	pr.printf("cycle-1 fraction (<=200ms): ours=%.3f paper=0.708\n", d.Cum200)
	pr.printf("within 600ms: ours=%.3f paper=0.926\n", d.Cum600)
	pr.printf("within 1000ms: ours=%.3f paper=0.983\n", d.Cum1000)
	return pr.err
}

// Fig15Row is one path's expected delay.
type Fig15Row struct {
	PathNumber int
	Hops       int
	ExpectedMS float64
}

// ComputeFig15 computes the per-path expected delays under a schedule.
func ComputeFig15(useEtaB bool) ([]Fig15Row, float64, error) {
	s := spec.TypicalSpec()
	if useEtaB {
		withEtaB(s)
	}
	na, err := analyze(s)
	if err != nil {
		return nil, 0, err
	}
	var rows []Fig15Row
	for i, pa := range na.Paths {
		rows = append(rows, Fig15Row{
			PathNumber: i + 1,
			Hops:       pa.Path.Hops(),
			ExpectedMS: pa.ExpectedDelayMS,
		})
	}
	return rows, na.OverallMeanDelayMS, nil
}

// RunFig15 prints the eta_a expected delays.
func RunFig15(w io.Writer) error {
	rows, mean, err := ComputeFig15(false)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Expected delays under eta_a (paper Fig. 15)\n")
	for _, r := range rows {
		pr.printf("path %2d (%d hops): E[tau]=%.1f ms\n", r.PathNumber, r.Hops, r.ExpectedMS)
	}
	pr.printf("E[Gamma]: ours=%.1f ms paper=235 ms; path 10: paper=421.4 ms\n", mean)
	return pr.err
}

// RunFig16 compares eta_a and eta_b.
func RunFig16(w io.Writer) error {
	rowsA, meanA, err := ComputeFig15(false)
	if err != nil {
		return err
	}
	rowsB, meanB, err := ComputeFig15(true)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Expected delays under eta_a vs eta_b (paper Fig. 16)\n")
	for i := range rowsA {
		pr.printf("path %2d: eta_a=%.1f ms  eta_b=%.1f ms\n",
			rowsA[i].PathNumber, rowsA[i].ExpectedMS, rowsB[i].ExpectedMS)
	}
	pr.printf("E[Gamma]: eta_a ours=%.1f (paper 235), eta_b ours=%.1f (paper 272)\n", meanA, meanB)
	pr.printf("paper anchors: path 10 drops 421.4 -> 291; path 7 becomes bottleneck at 317.95\n")
	return pr.err
}

// Tab2Row is one utilization sweep entry.
type Tab2Row struct {
	Avail       float64
	Exact       float64
	ClosedForm  float64
	LiteralEq10 float64
}

// tab2Avails is the availability sweep of the paper's Table II.
var tab2Avails = []float64{0.693, 0.774, 0.83, 0.903, 0.948, 0.989}

// ComputeTab2 sweeps network utilization over availabilities, reporting the
// exact DTMC count, the corrected closed form and the literal Eq. 10.
func ComputeTab2() ([]Tab2Row, error) {
	var out []Tab2Row
	for _, avail := range tab2Avails {
		na, err := analyze(typicalSpec(avail))
		if err != nil {
			return nil, err
		}
		row := Tab2Row{Avail: avail, Exact: na.UtilizationExact, ClosedForm: na.UtilizationClosed}
		for _, pa := range na.Paths {
			row.LiteralEq10 += measures.UtilizationClosedForm(pa.Result, true)
		}
		out = append(out, row)
	}
	return out, nil
}

// RunTab2 prints Table II.
func RunTab2(w io.Writer) error {
	rows, err := ComputeTab2()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Utilization vs link availability (paper Table II)\n")
	paper := []float64{0.313, 0.297, 0.283, 0.263, 0.25, 0.24}
	for i, r := range rows {
		pr.printf("pi(up)=%.3f  exact=%.3f corrected-Eq10=%.3f literal-Eq10=%.3f paper=%.3f\n",
			r.Avail, r.Exact, r.ClosedForm, r.LiteralEq10, paper[i])
	}
	pr.printf("note: Eq. 10 as printed (n+i) overshoots its own table; n+i-1 matches (see EXPERIMENTS.md)\n")
	return pr.err
}

// Tab3Row is one affected path's reachability with and without the
// failure.
type Tab3Row struct {
	PathNumber            int
	Hops                  int
	WithoutFailure        float64
	BlockedCycle          float64 // paper-compatible semantics
	ExactInjection        float64 // only e3 down during cycle 1
	PaperWithoutPct       float64
	PaperWithFailurePct   float64
	PaperSemanticsMatched bool
}

// ComputeTab3 reproduces Table III in both semantics at the default
// BER 2e-4.
func ComputeTab3() ([]Tab3Row, error) {
	base, err := spec.TypicalSpec().Build()
	if err != nil {
		return nil, err
	}
	n3, ok := base.Net.NodeByName("n3")
	if !ok {
		return nil, errMissing("n3")
	}
	gw, err := base.Net.Gateway()
	if err != nil {
		return nil, err
	}
	e3, ok := base.Net.LinkBetween(n3.ID, gw)
	if !ok {
		return nil, errMissing("link n3-G")
	}
	fup := base.Schedule.Fup()
	baseline, err := base.Analyzer.Analyze()
	if err != nil {
		return nil, err
	}

	// Paper-compatible: every link of every affected path blocked during
	// cycle 1. Spec has no field for this semantics, so it reaches the
	// analyzer as availability overrides.
	var affected []int // indices into Paths
	blockedLinks := map[topology.LinkID]bool{}
	for i, pa := range baseline.Paths {
		if !pa.Path.UsesLink(e3.ID) {
			continue
		}
		affected = append(affected, i)
		for _, lid := range pa.Path.Links() {
			blockedLinks[lid] = true
		}
	}
	blockedIDs := make([]topology.LinkID, 0, len(blockedLinks))
	for lid := range blockedLinks {
		blockedIDs = append(blockedIDs, lid)
	}
	sort.Slice(blockedIDs, func(i, j int) bool { return blockedIDs[i] < blockedIDs[j] })
	var blockedOpts []core.Option
	for _, lid := range blockedIDs {
		av, err := link.Blocked(base.Analyzer.LinkProcess(lid).Steady(), 1, fup+1)
		if err != nil {
			return nil, err
		}
		blockedOpts = append(blockedOpts, core.WithLinkAvailability(lid, av))
	}
	blocked, err := analyze(spec.TypicalSpec(), blockedOpts...)
	if err != nil {
		return nil, err
	}

	// Exact: only e3 is down during cycle 1 (then relaxes from DOWN).
	failed := spec.TypicalSpec()
	for i, l := range failed.Links {
		if l.A == "n3" && l.B == "G" {
			failed.Links[i].Failure = &spec.Failure{Kind: "window", FromSlot: 1, ToSlot: fup + 1}
		}
	}
	exact, err := analyze(failed)
	if err != nil {
		return nil, err
	}

	paper := map[int][2]float64{ // path number -> {without, with}
		3:  {99.92, 99.51},
		7:  {99.64, 98.30},
		8:  {99.64, 98.30},
		10: {99.07, 96.28},
	}
	var rows []Tab3Row
	for _, i := range affected {
		p := paper[i+1]
		rows = append(rows, Tab3Row{
			PathNumber:          i + 1,
			Hops:                baseline.Paths[i].Path.Hops(),
			WithoutFailure:      baseline.Paths[i].Reachability,
			BlockedCycle:        blocked.Paths[i].Reachability,
			ExactInjection:      exact.Paths[i].Reachability,
			PaperWithoutPct:     p[0],
			PaperWithFailurePct: p[1],
		})
	}
	return rows, nil
}

// RunTab3 prints Table III.
func RunTab3(w io.Writer) error {
	rows, err := ComputeTab3()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Reachability with a 1-cycle failure of e3 (paper Table III)\n")
	for _, r := range rows {
		pr.printf("path %2d (%d hops): no-failure ours=%.2f%% paper=%.2f%% | blocked-cycle ours=%.2f%% paper=%.2f%% | exact-e3-only ours=%.2f%%\n",
			r.PathNumber, r.Hops, r.WithoutFailure*100, r.PaperWithoutPct,
			r.BlockedCycle*100, r.PaperWithFailurePct, r.ExactInjection*100)
	}
	pr.printf("note: the paper's numbers equal the blocked-cycle semantics; exact per-link injection is milder for paths whose early hops avoid e3\n")
	return pr.err
}

// Fig18Row is one reporting-interval entry for the 1-hop path.
type Fig18Row struct {
	Is           int
	Reachability float64
}

// ComputeFig18 evaluates a 1-hop path at pi(up)=0.903 for Is in {1,2,4}.
func ComputeFig18() ([]Fig18Row, error) {
	lm, err := link.FromAvailability(0.903, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	var out []Fig18Row
	for _, is := range []int{1, 2, 4} {
		m, err := pathmodel.Build(pathmodel.Config{
			Slots: []int{1}, Fup: 20, Is: is,
			Links: []link.Availability{lm.Steady()},
		})
		if err != nil {
			return nil, err
		}
		res, err := m.Solve()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig18Row{Is: is, Reachability: res.Reachability()})
	}
	return out, nil
}

// RunFig18 prints the reporting-interval comparison.
func RunFig18(w io.Writer) error {
	rows, err := ComputeFig18()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Reporting-interval effect on a 1-hop path at pi(up)=0.903 (paper Fig. 18)\n")
	paper := map[int]float64{1: 0.903, 2: 0.99, 4: 0.999}
	for _, r := range rows {
		pr.printf("Is=%d  R: ours=%.4f paper~%.3f\n", r.Is, r.Reachability, paper[r.Is])
	}
	return pr.err
}

// Fig19Row is one path's fast-vs-regular comparison at one availability.
type Fig19Row struct {
	PathNumber   int
	Hops         int
	Avail        float64
	ReachFast    float64 // Is = 2
	ReachRegular float64 // Is = 4
}

// ComputeFig19 compares Is=2 and Is=4 for every path and availability.
func ComputeFig19(avails []float64) ([]Fig19Row, error) {
	var out []Fig19Row
	for _, avail := range avails {
		fastSpec := typicalSpec(avail)
		fastSpec.ReportingInterval = 2
		fast, err := analyze(fastSpec)
		if err != nil {
			return nil, err
		}
		regular, err := analyze(typicalSpec(avail)) // Is = 4
		if err != nil {
			return nil, err
		}
		for i, pa := range fast.Paths {
			out = append(out, Fig19Row{
				PathNumber:   i + 1,
				Hops:         pa.Path.Hops(),
				Avail:        avail,
				ReachFast:    pa.Reachability,
				ReachRegular: regular.Paths[i].Reachability,
			})
		}
	}
	return out, nil
}

// RunFig19 prints the fast-control comparison.
func RunFig19(w io.Writer) error {
	rows, err := ComputeFig19(Fig13Avails)
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Fast control Is=2 vs regular Is=4 (paper Fig. 19)\n")
	for _, r := range rows {
		pr.printf("pi=%.3f path %2d (%d hops): Is=2 R=%.4f, Is=4 R=%.4f\n",
			r.Avail, r.PathNumber, r.Hops, r.ReachFast, r.ReachRegular)
	}
	pr.printf("paper: fast control reachability is lower; the gap grows with hops and with worse links\n")
	return pr.err
}

// Tab4Data is the composition prediction result.
type Tab4Data struct {
	CyclesAlpha, CyclesBeta []float64
	ReachAlpha, ReachBeta   float64
}

// ComputeTab4 reproduces the Section VI-E prediction: node 5 attaches
// either via node 3 (2-hop existing path, Eb/N0=7 peer link) or node 4
// (1-hop existing path, Eb/N0=6 peer link).
func ComputeTab4() (*Tab4Data, error) {
	b, err := spec.TypicalSpec().Build()
	if err != nil {
		return nil, err
	}
	a := b.Analyzer
	sources := a.Sources()
	peer3, err := link.FromEbN0(7, channel.DefaultMessageBits, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	peer4, err := link.FromEbN0(6, channel.DefaultMessageBits, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	// Existing path 1 in the paper's Fig. 20 has 2 hops, path 2 has 1
	// hop; in the typical network these are path 4 (n4->n1->G) and path 1
	// (n1->G).
	gcA, rA, err := a.PredictPeerComposition(sources[3], []link.Model{peer3})
	if err != nil {
		return nil, err
	}
	gcB, rB, err := a.PredictPeerComposition(sources[0], []link.Model{peer4})
	if err != nil {
		return nil, err
	}
	return &Tab4Data{CyclesAlpha: gcA, CyclesBeta: gcB, ReachAlpha: rA, ReachBeta: rB}, nil
}

// RunTab4 prints Table IV.
func RunTab4(w io.Writer) error {
	d, err := ComputeTab4()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Performance prediction by path composition (paper Table IV)\n")
	pr.printf("alpha (via 2-hop, Eb/N0=7): gc=%.4f ours, paper=[0.6274 0.2694 0.0784 0.0193], R ours=%.2f%% paper=99.46%%\n",
		d.CyclesAlpha, d.ReachAlpha*100)
	pr.printf("beta  (via 1-hop, Eb/N0=6): gc=%.4f ours, paper=[0.6573 0.2485 0.0707 0.0180], R ours=%.2f%% paper=99.45%%\n",
		d.CyclesBeta, d.ReachBeta*100)
	pr.printf("paper conclusion: R_alpha ~ R_beta; beta preferred for its shorter expected delay (one fewer slot)\n")
	return pr.err
}
