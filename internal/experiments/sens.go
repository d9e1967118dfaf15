package experiments

import (
	"io"

	"wirelesshart/internal/spec"
)

// SensRow is one link's improvement potential in the typical network.
type SensRow struct {
	LinkName  string
	SharedBy  int
	MeanGain  float64
	WorstGain float64
}

// ComputeSens ranks the typical network's links by the mean-reachability
// gain of a +0.05 availability improvement — the quantitative form of the
// abstract's "routing suggestions" and Section VI-A's bottleneck
// discussion.
func ComputeSens() ([]SensRow, error) {
	b, err := spec.TypicalSpec().Build()
	if err != nil {
		return nil, err
	}
	sens, err := b.Analyzer.SensitivityAnalysis(0.05)
	if err != nil {
		return nil, err
	}
	var rows []SensRow
	for _, s := range sens {
		na, err := b.Net.Node(s.Link.A)
		if err != nil {
			return nil, err
		}
		nb, err := b.Net.Node(s.Link.B)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensRow{
			LinkName:  na.Name + "-" + nb.Name,
			SharedBy:  s.SharedBy,
			MeanGain:  s.MeanGain,
			WorstGain: s.WorstGain,
		})
	}
	return rows, nil
}

// RunSens prints the sensitivity ranking.
func RunSens(w io.Writer) error {
	rows, err := ComputeSens()
	if err != nil {
		return err
	}
	pr := &printer{w: w}
	pr.printf("Link improvement ranking, availability +0.05 probe (extension: the abstract's routing suggestions)\n")
	for _, r := range rows {
		pr.printf("%-8s carries %d paths: mean R gain %.6f, worst-path gain %.6f\n",
			r.LinkName, r.SharedBy, r.MeanGain, r.WorstGain)
	}
	pr.printf("reading: e3 = n3-G (four paths, among them 3-hop path 10) tops the list — the paper's 'improving the bottleneck can considerably improve the network performance', quantified per link\n")
	return pr.err
}
