package wirelesshart

import (
	"fmt"
	"sort"

	"wirelesshart/internal/core"
	"wirelesshart/internal/des"
	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
)

// DelayPoint is one support point of a delay distribution.
type DelayPoint struct {
	// MS is the delay in milliseconds.
	MS float64
	// Prob is the probability at this delay.
	Prob float64
}

// PathReport holds one uplink path's measures.
type PathReport struct {
	// Source is the source node name.
	Source string
	// Route is the node-name sequence to the gateway.
	Route []string
	// Hops is the path length.
	Hops int
	// Slots are the 1-based frame slots of the path's transmissions.
	Slots []int
	// Reachability is R, the in-interval delivery probability (Eq. 6).
	Reachability float64
	// CycleProbs[i] is the probability of arrival in cycle i+1.
	CycleProbs []float64
	// ExpectedDelayMS is E[tau] (Eq. 9); zero when Reachability is zero.
	ExpectedDelayMS float64
	// DelayDistribution is the normalized delay PMF (Eq. 8).
	DelayDistribution []DelayPoint
	// Utilization is the exact slot-usage fraction of this path.
	Utilization float64
	// ExpectedIntervalsToLoss is E[N] = 1/(1-R); +Inf-like large values
	// are capped by the zero value 0 meaning "no loss observed" when
	// R = 1.
	ExpectedIntervalsToLoss float64
	// LoopCompletion is the probability that the full control loop
	// (uplink + mirrored downlink) completes within the reporting
	// interval — the paper's Section V-A round-trip observation.
	LoopCompletion float64
	// LoopCycleProbs[k] is the probability the loop completes with k+1
	// total cycles.
	LoopCycleProbs []float64
	// DelayP95MS and DelayP99MS are delay percentiles over received
	// messages (zero when nothing is delivered).
	DelayP95MS, DelayP99MS float64
	// DelayStdDevMS is the delay jitter over received messages.
	DelayStdDevMS float64
}

// Report holds a network analysis.
type Report struct {
	// Paths are the per-source reports, sorted by source name.
	Paths []PathReport
	// Fup is the uplink frame size of the generated schedule.
	Fup int
	// Schedule is the schedule in the paper's eta notation.
	Schedule string
	// OverallMeanDelayMS is E[Gamma] (Eq. 13).
	OverallMeanDelayMS float64
	// OverallDelay is the network delay distribution (Fig. 14 style,
	// unnormalized: total mass is the mean reachability).
	OverallDelay []DelayPoint
	// Utilization is the exact network utilization (Eq. 11).
	Utilization float64
}

// PathBySource returns the report for one source name.
func (r *Report) PathBySource(name string) (PathReport, bool) {
	for _, p := range r.Paths {
		if p.Source == name {
			return p, true
		}
	}
	return PathReport{}, false
}

// Analyze builds the schedule, solves every path DTMC and returns the
// network report.
func (n *Network) Analyze(opts ...Option) (*Report, error) {
	b, err := n.build(opts)
	if err != nil {
		return nil, err
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		return nil, err
	}
	out := &Report{
		Fup:                b.Schedule.Fup(),
		Schedule:           b.Schedule.Format(b.Net),
		OverallMeanDelayMS: na.OverallMeanDelayMS,
		Utilization:        na.UtilizationExact,
	}
	for _, x := range na.OverallDelay.Support() {
		out.OverallDelay = append(out.OverallDelay, DelayPoint{MS: x, Prob: na.OverallDelay.Prob(x)})
	}
	for _, pa := range na.Paths {
		pr, err := pathReport(b, pa)
		if err != nil {
			return nil, err
		}
		rt, err := b.Analyzer.AnalyzeRoundTrip(pa.Source)
		if err != nil {
			return nil, err
		}
		pr.LoopCompletion = rt.Completion
		pr.LoopCycleProbs = rt.CycleProbs
		out.Paths = append(out.Paths, pr)
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Source < out.Paths[j].Source })
	return out, nil
}

func pathReport(b *spec.Built, pa *core.PathAnalysis) (PathReport, error) {
	srcNode, err := b.Net.Node(pa.Source)
	if err != nil {
		return PathReport{}, err
	}
	var route []string
	for _, id := range pa.Path.Nodes() {
		node, err := b.Net.Node(id)
		if err != nil {
			return PathReport{}, err
		}
		route = append(route, node.Name)
	}
	pr := PathReport{
		Source:          srcNode.Name,
		Route:           route,
		Hops:            pa.Path.Hops(),
		Slots:           b.Schedule.SlotsForSource(pa.Source),
		Reachability:    pa.Reachability,
		CycleProbs:      measures.CycleFunction(pa.Result),
		ExpectedDelayMS: pa.ExpectedDelayMS,
		Utilization:     pa.UtilizationExact,
	}
	if pa.DelayDist != nil {
		for _, x := range pa.DelayDist.Support() {
			pr.DelayDistribution = append(pr.DelayDistribution, DelayPoint{MS: x, Prob: pa.DelayDist.Prob(x)})
		}
		if q, err := pa.DelayDist.Quantile(0.95); err == nil {
			pr.DelayP95MS = q
		}
		if q, err := pa.DelayDist.Quantile(0.99); err == nil {
			pr.DelayP99MS = q
		}
		pr.DelayStdDevMS = pa.DelayDist.StdDev()
	}
	if pa.Reachability < 1 && pa.Reachability >= 0 {
		if e, err := measures.ExpectedIntervalsToFirstLoss(pa.Reachability); err == nil {
			pr.ExpectedIntervalsToLoss = e
		}
	}
	return pr, nil
}

// SimPathReport holds one path's simulated measures.
type SimPathReport struct {
	Source          string
	Hops            int
	Generated       int
	Delivered       int
	Lost            int
	Reachability    float64
	ReachabilityCI  float64
	ExpectedDelayMS float64
	CycleProbs      []float64
}

// SimReport holds a discrete-event simulation of the network.
type SimReport struct {
	Paths       []SimPathReport
	Intervals   int
	Utilization float64
}

// PathBySource returns the simulated report for one source name.
func (r *SimReport) PathBySource(name string) (SimPathReport, bool) {
	for _, p := range r.Paths {
		if p.Source == name {
			return p, true
		}
	}
	return SimPathReport{}, false
}

// Simulate runs the discrete-event simulator for the given number of
// reporting intervals with the given seed, under the same schedule and
// link parameters as Analyze. Failure-injection options (LinkDownDuring,
// LinkPermanentlyDown) are honored.
func (n *Network) Simulate(intervals int, seed int64, opts ...Option) (*SimReport, error) {
	b, err := n.build(opts)
	if err != nil {
		return nil, err
	}
	res, err := des.Run(des.Config{
		Net:       b.Net,
		Sched:     b.Schedule,
		Is:        b.Analyzer.Is(),
		TTL:       b.Analyzer.TTL(),
		Fdown:     b.Analyzer.Fdown(),
		Intervals: intervals,
		Seed:      seed,
		Links:     b.SimLinks(),
	})
	if err != nil {
		return nil, err
	}
	out := &SimReport{Intervals: res.Intervals, Utilization: res.NetworkUtilization()}
	for _, p := range res.Paths {
		srcNode, err := b.Net.Node(p.Source)
		if err != nil {
			return nil, err
		}
		ci, _ := p.ReachabilityCI()
		out.Paths = append(out.Paths, SimPathReport{
			Source:          srcNode.Name,
			Hops:            p.Hops,
			Generated:       p.Generated,
			Delivered:       p.Delivered,
			Lost:            p.Lost,
			Reachability:    p.Reachability(),
			ReachabilityCI:  ci,
			ExpectedDelayMS: p.DelaySummary.Mean(),
			CycleProbs:      p.CycleProbs(),
		})
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Source < out.Paths[j].Source })
	return out, nil
}

// LinkSuggestion ranks one link's improvement potential.
type LinkSuggestion struct {
	// A and B name the link's endpoints.
	A, B string
	// SharedBy counts the uplink paths traversing the link.
	SharedBy int
	// MeanReachabilityGain is the network mean-reachability improvement
	// if this link's availability rises by the probe delta.
	MeanReachabilityGain float64
	// WorstReachabilityGain is the bottleneck improvement.
	WorstReachabilityGain float64
}

// SuggestImprovements ranks the network's links by how much improving each
// one (raising its stationary availability by delta) would raise the mean
// per-path reachability — the paper's "routing suggestions" made concrete.
func (n *Network) SuggestImprovements(delta float64, opts ...Option) ([]LinkSuggestion, error) {
	b, err := n.build(opts)
	if err != nil {
		return nil, err
	}
	sens, err := b.Analyzer.SensitivityAnalysis(delta)
	if err != nil {
		return nil, err
	}
	out := make([]LinkSuggestion, 0, len(sens))
	for _, s := range sens {
		na, err := b.Net.Node(s.Link.A)
		if err != nil {
			return nil, err
		}
		nb, err := b.Net.Node(s.Link.B)
		if err != nil {
			return nil, err
		}
		out = append(out, LinkSuggestion{
			A:                     na.Name,
			B:                     nb.Name,
			SharedBy:              s.SharedBy,
			MeanReachabilityGain:  s.MeanGain,
			WorstReachabilityGain: s.WorstGain,
		})
	}
	return out, nil
}

// Prediction is the outcome of a composed-path routing prediction.
type Prediction struct {
	// Via is the attachment node.
	Via string
	// CycleProbs is the composed cycle probability function (Eq. 12).
	CycleProbs []float64
	// Reachability is the composed reachability.
	Reachability float64
	// Hops is the composed path length (peer hop + existing hops).
	Hops int
}

// BetterPrediction reports whether prediction a should rank above b under
// the paper's routing-choice rule (Section VI-E): higher reachability wins,
// and reachabilities within 0.05% of each other are tied and decided by the
// shorter composed path (each extra hop costs another ~10 ms slot).
func BetterPrediction(a, b *Prediction) bool {
	return measures.BetterComposed(a.Reachability, a.Hops, b.Reachability, b.Hops,
		measures.ComposedTieTolerance)
}

// RankPredictions returns the predictions ordered best-first by
// BetterPrediction; the input is not modified and ties keep their input
// order (stable).
func RankPredictions(preds []*Prediction) []*Prediction {
	out := append([]*Prediction(nil), preds...)
	sort.SliceStable(out, func(i, j int) bool { return BetterPrediction(out[i], out[j]) })
	return out
}

// PredictAttachment predicts the performance of a new node joining the
// network by a single peer link (with the given linear Eb/N0) to the named
// existing node, using the paper's composition rule (Section VI-E). The
// existing node must be a field device with a route to the gateway.
func (n *Network) PredictAttachment(via string, ebN0 float64, opts ...Option) (*Prediction, error) {
	return n.PredictMultiHopAttachment(via, []float64{ebN0}, opts...)
}

// PredictMultiHopAttachment generalizes PredictAttachment to a multi-hop
// peer path (paper Fig. 11): ebN0s[0] is the measured SNR of the hop
// leaving the new node, the last entry the hop arriving at the named
// existing node.
func (n *Network) PredictMultiHopAttachment(via string, ebN0s []float64, opts ...Option) (*Prediction, error) {
	b, err := n.build(opts)
	if err != nil {
		return nil, err
	}
	node, ok := b.Net.NodeByName(via)
	if !ok {
		return nil, fmt.Errorf("wirelesshart: unknown node %q", via)
	}
	peers := make([]link.Model, len(ebN0s))
	for i, e := range ebN0s {
		m, err := link.FromEbN0(e, n.bits, link.DefaultRecoveryProb)
		if err != nil {
			return nil, err
		}
		peers[i] = m
	}
	cycles, reach, err := b.Analyzer.PredictPeerComposition(node.ID, peers)
	if err != nil {
		return nil, err
	}
	routes := b.Analyzer.Routes()
	return &Prediction{
		Via:          via,
		CycleProbs:   cycles,
		Reachability: reach,
		Hops:         routes[node.ID].Hops() + len(peers),
	}, nil
}

// RequiredInterval returns the smallest reporting interval Is for which an
// n-hop homogeneous path at the given stationary availability reaches the
// target reachability, probing up to maxIs — the design-time inverse of
// the paper's fast-control trade-off (Section VI-D).
func RequiredInterval(hops int, avail, targetR float64, maxIs int) (int, error) {
	return measures.MinReportingInterval(hops, avail, targetR, maxIs)
}

// ExamplePath solves a standalone homogeneous path outside any network: n
// hops with the given per-hop stationary availability, transmission slots,
// frame size and reporting interval. It returns the cycle probabilities —
// the building block for custom studies.
func ExamplePath(slots []int, fup, is int, avail float64) ([]float64, error) {
	lm, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	links := make([]link.Availability, len(slots))
	for i := range links {
		links[i] = lm.Steady()
	}
	m, err := pathmodel.Build(pathmodel.Config{Slots: slots, Fup: fup, Is: is, Links: links})
	if err != nil {
		return nil, err
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	return res.CycleProbs, nil
}
