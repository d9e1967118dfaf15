package core

import (
	"math"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/topology"
)

// scalarSensitivity is the reference implementation of the sensitivity
// sweep — one full Analyze per link, of a fresh analyzer whose options end
// with the improved process of that link — kept in the tests to pin
// SensitivityAnalysis against it at 1e-12. An availability override in
// opts keeps masking the improved process, as it does in the sweep.
func scalarSensitivity(t *testing.T, net *topology.Network, sched *schedule.Schedule, opts []Option, delta float64) map[topology.LinkID][2]float64 {
	t.Helper()
	a, err := New(net, sched, opts...)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	baseWorst := worstReach(base)
	baseMean := meanReach(base)
	out := map[topology.LinkID][2]float64{}
	for _, l := range net.Links() {
		m := link.MemorylessEquivalent(a.LinkProcess(l.ID))
		improvedAvail := m.SteadyUp() + delta
		if improvedAvail > 1 {
			improvedAvail = 1
		}
		improved, err := link.FromAvailability(improvedAvail, m.RecoveryProb())
		if err != nil {
			t.Fatal(err)
		}
		perturbed, err := New(net, sched, append(opts[:len(opts):len(opts)], WithLinkProcess(l.ID, improved))...)
		if err != nil {
			t.Fatal(err)
		}
		na, err := perturbed.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		out[l.ID] = [2]float64{meanReach(na) - baseMean, worstReach(na) - baseWorst}
	}
	return out
}

// TestSensitivityBatchMatchesScalarSweep pins the batched sensitivity sweep
// against the scalar per-link reference sweep to 1e-12, with per-link
// models, an availability override masking one link, and a shared uniform
// model all in play.
func TestSensitivityBatchMatchesScalarSweep(t *testing.T) {
	net, sources, etaA := typicalSetup(t)
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	weak := routes[sources[8]].Links()[0]
	n3, _ := net.NodeByName("n3")
	gw, _ := net.Gateway()
	e3, _ := net.LinkBetween(n3.ID, gw)
	down, err := mustAvail(t, 0.83).DownDuring(3, 9, mustAvail(t, 0.83).Steady())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithUniformLinkProcess(mustAvail(t, 0.9)),
		WithLinkProcess(weak, mustAvail(t, 0.7)),
		WithLinkAvailability(e3.ID, down),
	}
	a, err := New(net, etaA, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := scalarSensitivity(t, net, etaA, opts, 0.05)
	got, err := a.SensitivityAnalysis(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for _, s := range got {
		ref := want[s.Link.ID]
		if d := math.Abs(s.MeanGain - ref[0]); d > 1e-12 {
			t.Errorf("link %v mean gain %v vs scalar %v", s.Link.ID, s.MeanGain, ref[0])
		}
		if d := math.Abs(s.WorstGain - ref[1]); d > 1e-12 {
			t.Errorf("link %v worst gain %v vs scalar %v", s.Link.ID, s.WorstGain, ref[1])
		}
	}
}

// TestPathModelsAssembleAnalysisMatchesAnalyze pins the split the
// benchmark ladder drives — build all models, solve each externally,
// assemble — against the one-shot Analyze.
func TestPathModelsAssembleAnalysisMatchesAnalyze(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, 0.83)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sms, err := a.PathModels()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*pathmodel.Result, len(sms))
	for i, sm := range sms {
		if results[i], err = sm.Model.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.AssembleAnalysis(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%d paths, want %d", len(got.Paths), len(want.Paths))
	}
	for i := range got.Paths {
		if got.Paths[i].Source != want.Paths[i].Source {
			t.Fatalf("path %d: source order differs", i)
		}
		if d := math.Abs(got.Paths[i].Reachability - want.Paths[i].Reachability); d > 1e-12 {
			t.Errorf("source %d: reachability %v vs %v",
				got.Paths[i].Source, got.Paths[i].Reachability, want.Paths[i].Reachability)
		}
	}
	if d := math.Abs(got.OverallMeanDelayMS - want.OverallMeanDelayMS); d > 1e-9 {
		t.Errorf("overall delay %v vs %v", got.OverallMeanDelayMS, want.OverallMeanDelayMS)
	}
	if _, err := a.AssembleAnalysis(results[:1]); err == nil && len(results) > 1 {
		t.Error("short result slice accepted")
	}
}
