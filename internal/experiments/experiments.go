// Package experiments regenerates every table and figure of the paper's
// evaluation: each experiment has an ID (fig4..fig19, tab1..tab4, plus the
// xval and ctrl extensions), computes its data from the library, and
// formats rows that mirror what the paper reports, side by side with the
// paper's printed values where available.
package experiments

import (
	"fmt"
	"io"

	"wirelesshart/internal/core"
	"wirelesshart/internal/des"
	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	// ID is the short identifier (e.g. "fig6", "tab2").
	ID string
	// Title describes the artifact.
	Title string
	// Run computes the experiment and writes its report.
	Run func(w io.Writer) error
}

// registry builds the experiment list lazily to keep package init trivial.
func registry() []Experiment {
	return []Experiment{
		{ID: "fig4", Title: "Fig. 4: path DTMC of the 3-hop example, Is=1", Run: RunFig4},
		{ID: "fig5", Title: "Fig. 5: path DTMC of the 3-hop example, Is=2", Run: RunFig5},
		{ID: "fig6", Title: "Fig. 6: transient goal-state probabilities, Is=4", Run: RunFig6},
		{ID: "fig7", Title: "Fig. 7: delay distribution of the example path", Run: RunFig7},
		{ID: "fig8", Title: "Fig. 8: reachability vs link availability", Run: RunFig8},
		{ID: "fig9", Title: "Fig. 9: delay distribution vs link availability", Run: RunFig9},
		{ID: "tab1", Title: "Table I: availability vs reachability and expected delay", Run: RunTab1},
		{ID: "fig10", Title: "Fig. 10: reachability vs hop count", Run: RunFig10},
		{ID: "fig12", Title: "Fig. 12: typical WirelessHART network", Run: RunFig12},
		{ID: "fig13", Title: "Fig. 13: per-path reachability in the typical network", Run: RunFig13},
		{ID: "fig14", Title: "Fig. 14: overall delay distribution", Run: RunFig14},
		{ID: "fig15", Title: "Fig. 15: per-path expected delays under eta_a", Run: RunFig15},
		{ID: "tab2", Title: "Table II: utilization vs link availability", Run: RunTab2},
		{ID: "fig16", Title: "Fig. 16: expected delays under eta_a vs eta_b", Run: RunFig16},
		{ID: "fig17", Title: "Fig. 17: link recovery from a transient failure", Run: RunFig17},
		{ID: "tab3", Title: "Table III: reachability with a 1-cycle failure of e3", Run: RunTab3},
		{ID: "fig18", Title: "Fig. 18: reporting-interval effect on a 1-hop path", Run: RunFig18},
		{ID: "fig19", Title: "Fig. 19: fast control (Is=2) vs regular (Is=4)", Run: RunFig19},
		{ID: "tab4", Title: "Table IV: performance prediction by composition", Run: RunTab4},
		{ID: "xval", Title: "Extension: DES vs analytical cross-validation", Run: RunXVal},
		{ID: "ctrl", Title: "Extension: control-loop stability vs availability", Run: RunCtrl},
		{ID: "opt", Title: "Ablation: automated schedule search vs eta_a/eta_b", Run: RunOpt},
		{ID: "hop", Title: "Ablation: Gilbert abstraction vs physical channel hopping", Run: RunHop},
		{ID: "plant", Title: "Extension: random 30/50/20 plant-network sweep", Run: RunPlant},
		{ID: "mchan", Title: "Extension: multi-channel TDMA+FDMA schedules", Run: RunMultiChannel},
		{ID: "inhomo", Title: "Extension: inhomogeneous links vs homogeneous average", Run: RunInhomo},
		{ID: "rtrip", Title: "Extension: control-loop completion, analytic vs full-loop DES", Run: RunRTrip},
		{ID: "ttl", Title: "Extension: message TTL sweep on the example path", Run: RunTTL},
		{ID: "sens", Title: "Extension: link improvement ranking (routing suggestions)", Run: RunSens},
		{ID: "fading", Title: "Extension: k-state fading burstiness, analytic vs DES", Run: RunFading},
	}
}

// All returns every experiment in paper order.
func All() []Experiment { return registry() }

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// PaperAvailabilities is the paper's stationary availability sweep with the
// BERs that produce it (Sections V-B, VI-A).
var PaperAvailabilities = []struct {
	Avail float64
	BER   float64
}{
	{Avail: 0.693, BER: 5.0e-4},
	{Avail: 0.774, BER: 3e-4},
	{Avail: 0.830, BER: 2e-4},
	{Avail: 0.903, BER: 1e-4},
	{Avail: 0.948, BER: 5e-5},
}

// examplePathModel builds the Section V-A example path: 3 hops in slots
// 3, 6, 7 of a 7-slot frame with homogeneous steady-state links. A ttl of
// 0 selects the default Is*Fup.
func examplePathModel(avail float64, is, ttl int) (*pathmodel.Model, error) {
	lm, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	return pathmodel.Build(pathmodel.Config{
		Slots: []int{3, 6, 7},
		Fup:   7,
		Is:    is,
		TTL:   ttl,
		Links: []link.Availability{lm.Steady(), lm.Steady(), lm.Steady()},
	})
}

// etaBPriority is the reconstructed eta_b: longest paths first, with path 7
// scheduled last among the two-hop paths, matching the paper's Fig. 16
// anchors (the exact eta_b is not printed in the paper).
var etaBPriority = []string{"n9", "n10", "n4", "n5", "n6", "n8", "n7", "n1", "n2", "n3"}

// typicalSpec returns the paper's Fig. 12 network under eta_a
// (spec.TypicalSpec) with every link at stationary availability avail; an
// avail of 0 keeps the spec's default BER 2e-4. Node ids follow the paper,
// so an analysis's Paths[i] is the paper's path i+1.
func typicalSpec(avail float64) *spec.Spec {
	s := spec.TypicalSpec()
	if avail != 0 {
		for i := range s.Links {
			s.Links[i].Availability = &avail
		}
	}
	return s
}

// withEtaB switches s's schedule from its policy to eta_b.
func withEtaB(s *spec.Spec) *spec.Spec {
	s.Schedule.Policy = ""
	s.Schedule.Priority = etaBPriority
	return s
}

// analyze realizes s with extra analyzer options and analyzes every path.
func analyze(s *spec.Spec, extra ...core.Option) (*core.NetworkAnalysis, error) {
	b, err := s.BuildWith(extra...)
	if err != nil {
		return nil, err
	}
	return b.Analyzer.Analyze()
}

// steadyLinks returns, per link of b, the simulator counterpart of the
// link's analyzed process: what the simulator needs to run b in its
// stationary regime.
func steadyLinks(b *spec.Built) map[topology.LinkID]des.LinkProcess {
	procs := map[topology.LinkID]des.LinkProcess{}
	for _, l := range b.Net.Links() {
		procs[l.ID] = des.NewProcessSteady(b.Analyzer.LinkProcess(l.ID))
	}
	return procs
}

type errMissing string

func (e errMissing) Error() string { return "experiments: missing " + string(e) }

// printer writes a runner's report and latches the first write error:
// every later printf is skipped, and err holds that first error.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}
