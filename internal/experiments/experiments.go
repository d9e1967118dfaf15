// Package experiments regenerates every table and figure of the paper's
// evaluation: each experiment has an ID (fig4..fig19, tab1..tab4, plus the
// xval and ctrl extensions), computes its data from the library, and
// formats rows that mirror what the paper reports, side by side with the
// paper's printed values where available.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
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
// 3, 6, 7 of a 7-slot frame with homogeneous steady-state links.
func examplePathModel(avail float64, is int) (*pathmodel.Model, error) {
	lm, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	return pathmodel.Build(pathmodel.Config{
		Slots: []int{3, 6, 7},
		Fup:   7,
		Is:    is,
		Links: []link.Availability{lm.Steady(), lm.Steady(), lm.Steady()},
	})
}

// typical bundles the paper's typical network with both schedules.
type typical struct {
	Net     *topology.Network
	Sources []topology.NodeID
	Routes  map[topology.NodeID]topology.Path
	EtaA    *schedule.Schedule
	EtaB    *schedule.Schedule
}

// buildTypical constructs the Fig. 12 network with eta_a (shortest-first)
// and the reconstructed eta_b (longest-first with path 7 scheduled last
// among the two-hop paths, matching the paper's Fig. 16 anchors; the exact
// eta_b is not printed in the paper).
func buildTypical() (*typical, error) {
	net, sources, err := topology.TypicalNetwork()
	if err != nil {
		return nil, err
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		return nil, err
	}
	etaA, err := schedule.BuildPriority(routes, schedule.ShortestFirst(routes), 1)
	if err != nil {
		return nil, err
	}
	orderB := []topology.NodeID{
		sources[8], sources[9], sources[3], sources[4], sources[5],
		sources[7], sources[6], sources[0], sources[1], sources[2],
	}
	etaB, err := schedule.BuildPriority(routes, orderB, 1)
	if err != nil {
		return nil, err
	}
	return &typical{Net: net, Sources: sources, Routes: routes, EtaA: etaA, EtaB: etaB}, nil
}

// pathNumber maps a source node to the paper's 1-based path number.
func (ty *typical) pathNumber(src topology.NodeID) int {
	for i, s := range ty.Sources {
		if s == src {
			return i + 1
		}
	}
	return 0
}

// analyzeTypical runs the analyzer over the typical network.
func analyzeTypical(ty *typical, sched *schedule.Schedule, opts ...core.Option) (*core.NetworkAnalysis, error) {
	a, err := core.New(ty.Net, sched, opts...)
	if err != nil {
		return nil, err
	}
	return a.Analyze()
}

// reachOf returns the reachability of src's path in na, or 0 when na has
// no path from src.
func reachOf(na *core.NetworkAnalysis, src topology.NodeID) float64 {
	for _, pa := range na.Paths {
		if pa.Source == src {
			return pa.Reachability
		}
	}
	return 0
}

// sortedPathAnalyses orders analyses by the paper's path numbering.
func sortedPathAnalyses(ty *typical, na *core.NetworkAnalysis) []*core.PathAnalysis {
	out := make([]*core.PathAnalysis, len(na.Paths))
	copy(out, na.Paths)
	sort.Slice(out, func(i, j int) bool {
		return ty.pathNumber(out[i].Source) < ty.pathNumber(out[j].Source)
	})
	return out
}

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
