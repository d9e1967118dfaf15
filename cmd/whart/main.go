// Command whart analyzes a WirelessHART network specification: it builds
// the hierarchical DTMC of every uplink path and prints reachability,
// expected delay, delay distribution and utilization — the automated tool
// described in the paper's conclusions.
//
// Usage:
//
//	whart -spec network.json          analyze a JSON specification
//	whart -typical                    analyze the paper's typical network
//	whart -typical -emit-spec         print the typical network's JSON spec
//	whart -spec net.json -dot n10     print the DOT of one path's DTMC
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"wirelesshart/internal/core"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "whart:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("whart", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to a JSON network specification")
	typical := fs.Bool("typical", false, "use the paper's typical 10-node network")
	emitSpec := fs.Bool("emit-spec", false, "print the network spec as JSON and exit")
	dotPath := fs.String("dot", "", "emit the DOT rendering of the named source's path DTMC")
	topoDot := fs.Bool("topology-dot", false, "emit the connectivity graph in DOT format")
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON")
	suggest := fs.Float64("suggest", 0, "rank links by improvement potential, probing with the given availability delta (e.g. 0.05)")
	optimize := fs.Bool("optimize", false, "search priority schedules minimizing the bottleneck expected delay")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var s *spec.Spec
	switch {
	case *typical && *specPath != "":
		return fmt.Errorf("use either -spec or -typical, not both")
	case *typical:
		s = spec.TypicalSpec()
	case *specPath != "":
		var err error
		if s, err = spec.LoadFile(*specPath); err != nil {
			return err
		}
	default:
		return fmt.Errorf("a network is required: -spec <file> or -typical")
	}

	if *emitSpec {
		return s.Write(w)
	}

	built, err := s.Build()
	if err != nil {
		return err
	}

	if *topoDot {
		return built.Net.WriteDOT(w, "network")
	}
	if *dotPath != "" {
		node, ok := built.Net.NodeByName(*dotPath)
		if !ok {
			return fmt.Errorf("unknown node %q", *dotPath)
		}
		m, err := built.Analyzer.BuildPathModel(node.ID)
		if err != nil {
			return err
		}
		return m.WriteDOT(w, "path-"+*dotPath)
	}

	if *suggest != 0 {
		return suggestReport(w, built, *suggest)
	}
	if *optimize {
		return optimizeReport(w, built)
	}
	if *jsonOut {
		return jsonReport(w, built)
	}
	return report(w, built)
}

func optimizeReport(w io.Writer, built *spec.Built) error {
	base, err := built.Analyzer.Analyze()
	if err != nil {
		return err
	}
	res, err := core.OptimizeSchedule(built.Net, 1, core.MaxExpectedDelay, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bottleneck E[tau]: current schedule %.1f ms -> optimized %.1f ms (%d evaluations)\n",
		core.MaxExpectedDelay(base), res.Score, res.Evaluations)
	fmt.Fprintf(w, "optimized schedule: %s\n", res.Schedule.Format(built.Net))
	fmt.Fprintf(w, "priority order:")
	for _, src := range res.Order {
		node, err := built.Net.Node(src)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " %s", node.Name)
	}
	fmt.Fprintln(w)
	return nil
}

func suggestReport(w io.Writer, built *spec.Built, delta float64) error {
	sens, err := built.Analyzer.SensitivityAnalysis(delta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "link improvement suggestions (availability +%.2f probe):\n", delta)
	fmt.Fprintf(w, "%-12s %8s %14s %14s\n", "link", "paths", "mean R gain", "worst R gain")
	for _, s := range sens {
		na, err := built.Net.Node(s.Link.A)
		if err != nil {
			return err
		}
		nb, err := built.Net.Node(s.Link.B)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %8d %14.6f %14.6f\n",
			na.Name+"-"+nb.Name, s.SharedBy, s.MeanGain, s.WorstGain)
	}
	return nil
}

// jsonPath is the machine-readable per-path record.
type jsonPath struct {
	Source          string             `json:"source"`
	Route           []string           `json:"route"`
	Hops            int                `json:"hops"`
	Slots           []int              `json:"slots"`
	Reachability    float64            `json:"reachability"`
	CycleProbs      []float64          `json:"cycleProbs"`
	ExpectedDelayMS float64            `json:"expectedDelayMs"`
	DelayDist       map[string]float64 `json:"delayDistribution,omitempty"`
	Utilization     float64            `json:"utilization"`
	LoopCompletion  float64            `json:"loopCompletion"`
}

// jsonDoc is the machine-readable analysis document.
type jsonDoc struct {
	Fup                int        `json:"fup"`
	ReportingInterval  int        `json:"reportingInterval"`
	Paths              []jsonPath `json:"paths"`
	OverallMeanDelayMS float64    `json:"overallMeanDelayMs"`
	Utilization        float64    `json:"utilization"`
}

func jsonReport(w io.Writer, built *spec.Built) error {
	na, err := built.Analyzer.Analyze()
	if err != nil {
		return err
	}
	doc := jsonDoc{
		Fup:                built.Schedule.Fup(),
		ReportingInterval:  built.Analyzer.Is(),
		OverallMeanDelayMS: na.OverallMeanDelayMS,
		Utilization:        na.UtilizationExact,
	}
	for _, pa := range na.Paths {
		node, err := built.Net.Node(pa.Source)
		if err != nil {
			return err
		}
		var route []string
		for _, id := range pa.Path.Nodes() {
			n, err := built.Net.Node(id)
			if err != nil {
				return err
			}
			route = append(route, n.Name)
		}
		rt, err := built.Analyzer.AnalyzeRoundTrip(pa.Source)
		if err != nil {
			return err
		}
		jp := jsonPath{
			Source:          node.Name,
			Route:           route,
			Hops:            pa.Path.Hops(),
			Slots:           built.Schedule.SlotsForSource(pa.Source),
			Reachability:    pa.Reachability,
			CycleProbs:      pa.Result.CycleProbs,
			ExpectedDelayMS: pa.ExpectedDelayMS,
			Utilization:     pa.UtilizationExact,
			LoopCompletion:  rt.Completion,
		}
		if pa.DelayDist != nil {
			jp.DelayDist = map[string]float64{}
			for _, d := range pa.DelayDist.Support() {
				jp.DelayDist[fmt.Sprintf("%.0f", d)] = pa.DelayDist.Prob(d)
			}
		}
		doc.Paths = append(doc.Paths, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func report(w io.Writer, built *spec.Built) error {
	na, err := built.Analyzer.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schedule (Fup=%d): %s\n", built.Schedule.Fup(), built.Schedule.Format(built.Net))
	fmt.Fprintf(w, "reporting interval: %d super-frames, downlink frame: %d slots\n\n",
		built.Analyzer.Is(), built.Analyzer.Fdown())
	fmt.Fprintf(w, "%-8s %-24s %5s %12s %14s %10s %12s %10s\n",
		"source", "route", "hops", "reach", "E[delay] ms", "p95 ms", "utilization", "loop")
	for _, pa := range na.Paths {
		node, err := built.Net.Node(pa.Source)
		if err != nil {
			return err
		}
		var p95 float64
		if pa.DelayDist != nil {
			if q, err := pa.DelayDist.Quantile(0.95); err == nil {
				p95 = q
			}
		}
		rt, err := built.Analyzer.AnalyzeRoundTrip(pa.Source)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-24s %5d %12.6f %14.1f %10.0f %12.4f %10.4f\n",
			node.Name, pa.Path.Format(built.Net), pa.Path.Hops(),
			pa.Reachability, pa.ExpectedDelayMS, p95, pa.UtilizationExact, rt.Completion)
	}
	fmt.Fprintf(w, "\noverall mean delay E[Gamma]: %.1f ms\n", na.OverallMeanDelayMS)
	fmt.Fprintf(w, "network utilization (exact): %.4f\n", na.UtilizationExact)
	fmt.Fprintf(w, "network delay distribution:\n")
	for _, d := range na.OverallDelay.Support() {
		fmt.Fprintf(w, "  %6.0f ms: %.4f\n", d, na.OverallDelay.Prob(d))
	}
	// Loss expectations per path.
	fmt.Fprintf(w, "expected intervals to first loss per path:\n")
	for _, pa := range na.Paths {
		node, err := built.Net.Node(pa.Source)
		if err != nil {
			return err
		}
		if pa.Reachability >= 1 {
			fmt.Fprintf(w, "  %-8s never (R = 1)\n", node.Name)
			continue
		}
		e, err := measures.ExpectedIntervalsToFirstLoss(pa.Reachability)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s %.1f intervals\n", node.Name, e)
	}
	return nil
}
