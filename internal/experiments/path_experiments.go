package experiments

import (
	"io"
	"strings"

	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
)

// Fig4Data describes the constructed Is=1 path DTMC.
type Fig4Data struct {
	NumStates int
	GoalAges  []int
	DOT       string
}

// ComputeFig4 builds the Fig. 4 model (Is = 1) and exports it.
func ComputeFig4() (*Fig4Data, error) {
	return computePathDTMC(1)
}

// ComputeFig5 builds the Fig. 5 model (Is = 2) and exports it.
func ComputeFig5() (*Fig4Data, error) {
	return computePathDTMC(2)
}

func computePathDTMC(is int) (*Fig4Data, error) {
	m, err := examplePathModel(0.75, is)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := m.WriteDOT(&b, "pathmodel"); err != nil {
		return nil, err
	}
	return &Fig4Data{
		NumStates: m.NumStates(),
		GoalAges:  m.GoalAges(),
		DOT:       b.String(),
	}, nil
}

// RunFig4 reports the Is=1 DTMC structure and its DOT rendering.
func RunFig4(w io.Writer) error {
	d, err := ComputeFig4()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Path DTMC, 3-hop example path, Is=1 (paper Fig. 4)\n")
	pr.printf("states: %d, goal ages: %v (paper: goal R7 plus Discard)\n", d.NumStates, d.GoalAges)
	pr.printf("%s", d.DOT)
	return pr.err
}

// RunFig5 reports the Is=2 DTMC structure.
func RunFig5(w io.Writer) error {
	d, err := ComputeFig5()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Path DTMC, 3-hop example path, Is=2 (paper Fig. 5)\n")
	pr.printf("states: %d, goal ages: %v (paper: goals R7, R14 plus Discard)\n", d.NumStates, d.GoalAges)
	pr.printf("%s", d.DOT)
	return pr.err
}

// Fig6Data holds the transient goal-state curves.
type Fig6Data struct {
	GoalAges []int
	// Final[i] is goal i's probability at the end of the interval.
	Final []float64
	// Curves[i][t] is goal i's transient probability at age t.
	Curves       [][]float64
	Reachability float64
}

// ComputeFig6 solves the example path at pi(up) = 0.75, Is = 4.
func ComputeFig6() (*Fig6Data, error) {
	m, err := examplePathModel(0.75, 4)
	if err != nil {
		return nil, err
	}
	curves, err := m.GoalTrajectories()
	if err != nil {
		return nil, err
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	return &Fig6Data{
		GoalAges:     m.GoalAges(),
		Final:        res.CycleProbs,
		Curves:       curves,
		Reachability: res.Reachability(),
	}, nil
}

// RunFig6 prints the goal-state probabilities against the paper's values.
func RunFig6(w io.Writer) error {
	d, err := ComputeFig6()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Transient goal-state probabilities at t=28 (paper Fig. 6)\n")
	paper := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	for i, age := range d.GoalAges {
		pr.printf("R%-3d ours=%.5f paper=%.5f\n", age, d.Final[i], paper[i])
	}
	pr.printf("reachability R: ours=%.4f paper=0.9624\n", d.Reachability)
	return pr.err
}

// Fig7Data is the example path's delay distribution.
type Fig7Data struct {
	// DelayMS and Prob list the normalized distribution tau.
	DelayMS       []float64
	Prob          []float64
	ExpectedDelay float64
}

// ComputeFig7 derives the delay distribution of the example path.
func ComputeFig7() (*Fig7Data, error) {
	m, err := examplePathModel(0.75, 4)
	if err != nil {
		return nil, err
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	pmf, err := measures.DelayDistribution(res, 7)
	if err != nil {
		return nil, err
	}
	d := &Fig7Data{ExpectedDelay: pmf.Mean()}
	for _, x := range pmf.Support() {
		d.DelayMS = append(d.DelayMS, x)
		d.Prob = append(d.Prob, pmf.Prob(x))
	}
	return d, nil
}

// RunFig7 prints the delay distribution.
func RunFig7(w io.Writer) error {
	d, err := ComputeFig7()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Delay distribution of the example path (paper Fig. 7)\n")
	for i := range d.DelayMS {
		pr.printf("delay %4.0f ms: tau=%.4f\n", d.DelayMS[i], d.Prob[i])
	}
	pr.printf("E[tau]: ours=%.1f ms paper=190.8 ms\n", d.ExpectedDelay)
	return pr.err
}

// SweepRow is one availability sweep entry.
type SweepRow struct {
	Avail        float64
	BER          float64
	Reachability float64
	ExpectedMS   float64
}

// ComputeFig8 sweeps the example path's reachability over the paper's
// availabilities (equals Table I plus the 0.693 point).
func ComputeFig8() ([]SweepRow, error) {
	var out []SweepRow
	for _, pa := range PaperAvailabilities {
		m, err := examplePathModel(pa.Avail, 4)
		if err != nil {
			return nil, err
		}
		res, err := m.Solve()
		if err != nil {
			return nil, err
		}
		row := SweepRow{Avail: pa.Avail, BER: pa.BER, Reachability: res.Reachability()}
		if e, err := measures.ExpectedDelayMS(res, 7); err == nil {
			row.ExpectedMS = e
		}
		out = append(out, row)
	}
	return out, nil
}

// RunFig8 prints reachability vs availability.
func RunFig8(w io.Writer) error {
	rows, err := ComputeFig8()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Reachability vs link availability, 3-hop path (paper Fig. 8)\n")
	paper := []float64{0.924, 0.9737, 0.9907, 0.9989, 0.9999}
	for i, r := range rows {
		pr.printf("pi(up)=%.3f  R: ours=%.4f paper=%.4f\n", r.Avail, r.Reachability, paper[i])
	}
	return pr.err
}

// Fig9Data holds one delay distribution per availability.
type Fig9Data struct {
	Avail   float64
	BER     float64
	DelayMS []float64
	Prob    []float64
}

// ComputeFig9 derives the delay distributions for the four BER points of
// Fig. 9 (0.693 is not plotted in the paper's figure).
func ComputeFig9() ([]Fig9Data, error) {
	var out []Fig9Data
	for _, pa := range PaperAvailabilities[1:] {
		m, err := examplePathModel(pa.Avail, 4)
		if err != nil {
			return nil, err
		}
		res, err := m.Solve()
		if err != nil {
			return nil, err
		}
		pmf, err := measures.DelayDistribution(res, 7)
		if err != nil {
			return nil, err
		}
		d := Fig9Data{Avail: pa.Avail, BER: pa.BER}
		for _, x := range pmf.Support() {
			d.DelayMS = append(d.DelayMS, x)
			d.Prob = append(d.Prob, pmf.Prob(x))
		}
		out = append(out, d)
	}
	return out, nil
}

// RunFig9 prints the availability-dependent delay distributions.
func RunFig9(w io.Writer) error {
	ds, err := ComputeFig9()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Delay distributions vs availability (paper Fig. 9)\n")
	for _, d := range ds {
		pr.printf("pi(up)=%.3f BER=%.0e:", d.Avail, d.BER)
		for i := range d.DelayMS {
			pr.printf("  %3.0fms:%.4f", d.DelayMS[i], d.Prob[i])
		}
		pr.printf("\n")
	}
	pr.printf("paper anchors: tau(210)=0.3228 at 0.774; tau(210)=0.1332, tau(350)=0.1459 present in figure\n")
	return pr.err
}

// RunTab1 prints Table I.
func RunTab1(w io.Writer) error {
	rows, err := ComputeFig8()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Influence of pi(up) on reachability and expected delay (paper Table I)\n")
	type paperRow struct{ r, d float64 }
	paper := map[float64]paperRow{
		0.774: {r: 97.37, d: 179},
		0.830: {r: 99.07, d: 151},
		0.903: {r: 99.89, d: 113},
		0.948: {r: 99.99, d: 93},
	}
	for _, row := range rows {
		p, ok := paper[row.Avail]
		if !ok {
			continue
		}
		pr.printf("pi(up)=%.3f  R%%: ours=%.2f paper=%.2f   E[tau]: ours=%.0f ms paper=%.0f ms\n",
			row.Avail, row.Reachability*100, p.r, row.ExpectedMS, p.d)
	}
	pr.printf("note: the 113 ms row computes to 114.5 ms from the paper's own cycle probabilities\n")
	return pr.err
}

// HopRow is one hop-count sweep entry.
type HopRow struct {
	Hops         int
	Reachability float64
}

// ComputeFig10 sweeps hop count 1..4 at pi(up) = 0.83.
func ComputeFig10() ([]HopRow, error) {
	lm, err := link.FromAvailability(0.83, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	var out []HopRow
	for hops := 1; hops <= 4; hops++ {
		slots := make([]int, hops)
		links := make([]link.Availability, hops)
		for h := 0; h < hops; h++ {
			slots[h] = h + 1
			links[h] = lm.Steady()
		}
		m, err := pathmodel.Build(pathmodel.Config{Slots: slots, Fup: 7, Is: 4, Links: links})
		if err != nil {
			return nil, err
		}
		res, err := m.Solve()
		if err != nil {
			return nil, err
		}
		out = append(out, HopRow{Hops: hops, Reachability: res.Reachability()})
	}
	return out, nil
}

// RunFig10 prints the hop-count sweep.
func RunFig10(w io.Writer) error {
	rows, err := ComputeFig10()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Reachability vs hop count at pi(up)=0.83 (paper Fig. 10)\n")
	paper := []float64{0.9992, 0.9964, 0.9907, 0.9812}
	for i, r := range rows {
		pr.printf("%d hops  R: ours=%.4f paper=%.4f\n", r.Hops, r.Reachability, paper[i])
	}
	return pr.err
}

// Fig17Data is the transient recovery curve of one link model.
type Fig17Data struct {
	PFl    float64
	Steady float64
	// UpProb[t] is P(up at slot t) starting DOWN at slot 0.
	UpProb []float64
}

// ComputeFig17 produces the recovery curves for the paper's two failure
// rates.
func ComputeFig17() ([]Fig17Data, error) {
	var out []Fig17Data
	for _, pfl := range []float64{0.184, 0.05} {
		m, err := link.New(pfl, link.DefaultRecoveryProb)
		if err != nil {
			return nil, err
		}
		d := Fig17Data{PFl: pfl, Steady: m.SteadyUp()}
		for t := 0; t <= 6; t++ {
			d.UpProb = append(d.UpProb, m.TransientUp(0, t))
		}
		out = append(out, d)
	}
	return out, nil
}

// RunFig17 prints the link recovery curves.
func RunFig17(w io.Writer) error {
	ds, err := ComputeFig17()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Link recovery from a transient failure (paper Fig. 17)\n")
	for _, d := range ds {
		pr.printf("p_fl=%.3f steady=%.4f up-prob by slot:", d.PFl, d.Steady)
		for t, p := range d.UpProb {
			pr.printf(" t%d=%.4f", t, p)
		}
		pr.printf("\n")
	}
	pr.printf("paper: the link returns to steady state almost immediately (within ~2 slots)\n")
	return pr.err
}
