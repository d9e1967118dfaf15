// Command whart-sim runs the discrete-event simulator on a WirelessHART
// network specification and reports the simulated measures next to the
// analytical DTMC predictions — the cross-validation a testbed would
// provide.
//
// Usage:
//
//	whart-sim -typical -intervals 20000 -seed 1
//	whart-sim -spec network.json -intervals 50000
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"wirelesshart/internal/des"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "whart-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("whart-sim", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to a JSON network specification")
	typical := fs.Bool("typical", false, "use the paper's typical 10-node network")
	intervals := fs.Int("intervals", 20000, "number of reporting intervals to simulate")
	seed := fs.Int64("seed", 1, "PRNG seed")
	roundtrip := fs.Bool("roundtrip", false, "simulate the full control loop (uplink + mirrored downlink)")
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

	built, err := s.Build()
	if err != nil {
		return err
	}
	na, err := built.Analyzer.Analyze()
	if err != nil {
		return err
	}

	// One steady process per link — the two-state chain for classic
	// links, the k-state chain for fading links — honoring the spec's
	// failure injections.
	procs := map[topology.LinkID]des.LinkProcess{}
	for _, l := range built.Net.Links() {
		proc := des.NewProcessSteady(built.Analyzer.LinkProcess(l.ID))
		if f, ok := built.Failures[l.ID]; ok {
			from, to := f.ForcedWindow()
			proc = &des.ForcedWindowProcess{Base: proc, From: from, To: to}
		}
		procs[l.ID] = proc
	}
	if *roundtrip {
		return runRoundTrip(w, built, procs, *intervals, *seed)
	}
	sim, err := des.Run(des.Config{
		Net:       built.Net,
		Sched:     built.Schedule,
		Is:        built.Analyzer.Is(),
		TTL:       built.Analyzer.TTL(),
		Fdown:     built.Analyzer.Fdown(),
		Intervals: *intervals,
		Seed:      *seed,
		Links:     procs,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "simulated %d reporting intervals (seed %d)\n\n", sim.Intervals, *seed)
	fmt.Fprintf(w, "%-8s %5s %14s %20s %14s %14s\n",
		"source", "hops", "R analytic", "R simulated (95%CI)", "E[tau] ana", "E[tau] sim")
	type row struct {
		name string
		line string
	}
	var rows []row
	worst := 0.0
	for _, pa := range na.Paths {
		node, err := built.Net.Node(pa.Source)
		if err != nil {
			return err
		}
		sp, ok := sim.PathBySource(pa.Source)
		if !ok {
			continue
		}
		ci, err := sp.ReachabilityCI()
		if err != nil {
			return err
		}
		if d := math.Abs(pa.Reachability - sp.Reachability()); d > worst {
			worst = d
		}
		rows = append(rows, row{
			name: node.Name,
			line: fmt.Sprintf("%-8s %5d %14.5f %12.5f(+-%.5f) %14.1f %14.1f",
				node.Name, pa.Path.Hops(), pa.Reachability,
				sp.Reachability(), ci, pa.ExpectedDelayMS, sp.DelaySummary.Mean()),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		fmt.Fprintln(w, r.line)
	}
	fmt.Fprintf(w, "\nnetwork utilization: analytic=%.4f simulated=%.4f\n",
		na.UtilizationExact, sim.NetworkUtilization())
	fmt.Fprintf(w, "largest |analytic - simulated| reachability gap: %.5f\n", worst)
	return nil
}

func runRoundTrip(w io.Writer, built *spec.Built, procs map[topology.LinkID]des.LinkProcess, intervals int, seed int64) error {
	res, err := des.RunRoundTrip(des.RoundTripConfig{
		Net:       built.Net,
		Sched:     built.Schedule,
		Is:        built.Analyzer.Is(),
		Intervals: intervals,
		Seed:      seed,
		Links:     procs,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated %d control loops per source (seed %d)\n\n", res.Intervals, seed)
	fmt.Fprintf(w, "%-8s %5s %16s %20s\n", "source", "hops", "loop analytic", "loop simulated")
	type row struct {
		name string
		line string
	}
	var rows []row
	for _, l := range res.Loops {
		node, err := built.Net.Node(l.Source)
		if err != nil {
			return err
		}
		rt, err := built.Analyzer.AnalyzeRoundTrip(l.Source)
		if err != nil {
			return err
		}
		ci, err := l.CompletionCI()
		if err != nil {
			return err
		}
		rows = append(rows, row{
			name: node.Name,
			line: fmt.Sprintf("%-8s %5d %16.5f %12.5f(+-%.5f)",
				node.Name, l.Hops, rt.Completion, l.Completion(), ci),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		fmt.Fprintln(w, r.line)
	}
	return nil
}
