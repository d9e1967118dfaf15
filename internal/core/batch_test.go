package core

import (
	"math"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/topology"
)

// scalarSensitivity is the pre-batch reference implementation of the
// sensitivity sweep — one full analyzeWith per link — kept in the tests to
// pin the batched SensitivityAnalysis against it at 1e-12.
func scalarSensitivity(t *testing.T, a *Analyzer, delta float64) map[topology.LinkID][2]float64 {
	t.Helper()
	base, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	baseWorst := worstReach(base)
	baseMean := meanReach(base)
	out := map[topology.LinkID][2]float64{}
	for _, l := range a.net.Links() {
		m := a.LinkModel(l.ID)
		improvedAvail := m.SteadyUp() + delta
		if improvedAvail > 1 {
			improvedAvail = 1
		}
		improved, err := link.FromAvailability(improvedAvail, m.RecoveryProb())
		if err != nil {
			t.Fatal(err)
		}
		steady := improved.Steady()
		target := l.ID
		na, err := a.analyzeWith(func(id topology.LinkID) link.Availability {
			if id == target {
				if av, ok := a.overrides[id]; ok {
					return av
				}
				return steady
			}
			return a.availability(id)
		})
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
	a, err := New(net, etaA,
		WithUniformLinkProcess(mustAvail(t, 0.9)),
		WithLinkProcess(weak, mustAvail(t, 0.7)),
		WithLinkAvailability(e3.ID, down),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := scalarSensitivity(t, a, 0.05)
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

// TestAnalyzeInjectionGridMatchesScalar pins the batched injection grid
// against K independent analyzers configured with the same overrides, on
// every derived measure, to 1e-12.
func TestAnalyzeInjectionGridMatchesScalar(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	m := mustAvail(t, 0.83)
	n3, _ := net.NodeByName("n3")
	gw, _ := net.Gateway()
	e3, _ := net.LinkBetween(n3.ID, gw)
	links := net.Links()

	var scenarios []InjectionScenario
	scenarios = append(scenarios, InjectionScenario{}) // no injection
	for i := 0; i < 3; i++ {
		av, err := m.DownDuring(i*5, i*5+14, m.Steady())
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, InjectionScenario{links[i%len(links)].ID: av})
	}
	scenarios = append(scenarios, InjectionScenario{e3.ID: link.PermanentDown()})

	a, err := New(net, etaA, WithUniformLinkProcess(m))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := a.AnalyzeInjectionGrid(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(scenarios) {
		t.Fatalf("%d analyses, want %d", len(grid), len(scenarios))
	}
	for j, sc := range scenarios {
		opts := []Option{WithUniformLinkProcess(m)}
		for id, av := range sc {
			opts = append(opts, WithLinkAvailability(id, av))
		}
		ref, err := New(net, etaA, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		got := grid[j]
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("scenario %d: %d paths, want %d", j, len(got.Paths), len(want.Paths))
		}
		for i := range got.Paths {
			if got.Paths[i].Source != want.Paths[i].Source {
				t.Fatalf("scenario %d path %d: source order differs", j, i)
			}
			if d := math.Abs(got.Paths[i].Reachability - want.Paths[i].Reachability); d > 1e-12 {
				t.Errorf("scenario %d source %d: reachability %v vs %v",
					j, got.Paths[i].Source, got.Paths[i].Reachability, want.Paths[i].Reachability)
			}
			if d := math.Abs(got.Paths[i].ExpectedDelayMS - want.Paths[i].ExpectedDelayMS); d > 1e-9 {
				t.Errorf("scenario %d source %d: delay %v vs %v",
					j, got.Paths[i].Source, got.Paths[i].ExpectedDelayMS, want.Paths[i].ExpectedDelayMS)
			}
		}
		if d := math.Abs(got.UtilizationExact - want.UtilizationExact); d > 1e-12 {
			t.Errorf("scenario %d: utilization %v vs %v", j, got.UtilizationExact, want.UtilizationExact)
		}
		if d := math.Abs(got.OverallMeanDelayMS - want.OverallMeanDelayMS); d > 1e-9 {
			t.Errorf("scenario %d: overall delay %v vs %v", j, got.OverallMeanDelayMS, want.OverallMeanDelayMS)
		}
	}

	if _, err := a.AnalyzeInjectionGrid(nil); err == nil {
		t.Error("empty grid accepted")
	}
}

// TestPathModelsAssembleAnalysisMatchesAnalyze pins the engine-facing
// split — build all models, solve externally (here as one structure-shared
// batch), assemble — against the one-shot Analyze.
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
	// Group by shared structure in first-occurrence order, as the engine's
	// batch endpoint does, and solve each group in one batch.
	results := make([]*pathmodel.Result, len(sms))
	var order []*pathmodel.Structure
	groups := map[*pathmodel.Structure][]int{}
	for i, sm := range sms {
		st := sm.Model.Structure()
		if _, ok := groups[st]; !ok {
			order = append(order, st)
		}
		groups[st] = append(groups[st], i)
	}
	for _, st := range order {
		idx := groups[st]
		models := make([]*pathmodel.Model, len(idx))
		for k, i := range idx {
			models[k] = sms[i].Model
		}
		batch, err := pathmodel.SolveBatch(models)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range idx {
			results[i] = batch[k]
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
