package core

import (
	"math"
	"testing"

	"wirelesshart/internal/link"
)

func TestSensitivityAnalysisRanksSharedLinkFirst(t *testing.T) {
	// e3 (n3-G) carries four paths including a 3-hop one; improving it
	// yields the largest mean-reachability gain in the homogeneous
	// network.
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, 0.83)))
	if err != nil {
		t.Fatal(err)
	}
	sens, err := a.SensitivityAnalysis(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != net.NumLinks() {
		t.Fatalf("got %d entries, want %d", len(sens), net.NumLinks())
	}
	for i := 1; i < len(sens); i++ {
		if sens[i].MeanGain > sens[i-1].MeanGain+1e-12 {
			t.Error("sensitivity not sorted by mean gain")
		}
	}
	n3, _ := net.NodeByName("n3")
	gw, _ := net.Gateway()
	e3, _ := net.LinkBetween(n3.ID, gw)
	top := sens[0]
	if top.Link.ID != e3.ID {
		t.Errorf("top-ranked link = %v, want e3 (%v)", top.Link, e3)
	}
	if top.SharedBy != 4 {
		t.Errorf("e3 shared by %d, want 4", top.SharedBy)
	}
	if top.MeanGain <= 0 {
		t.Errorf("top mean gain = %v, want positive", top.MeanGain)
	}
	// Every improvement helps somewhere: all mean gains positive.
	for _, s := range sens {
		if s.MeanGain <= 0 {
			t.Errorf("link %v mean gain %v, want positive", s.Link, s.MeanGain)
		}
	}
	// Worst-path gain is zero for every single link: paths 9 and 10 tie
	// at the bottom and share no link, so no single improvement lifts
	// the minimum.
	for _, s := range sens {
		if s.WorstGain > 1e-12 {
			t.Errorf("link %v worst gain %v, expected 0 with tied bottlenecks", s.Link, s.WorstGain)
		}
	}
}

func TestSensitivityAnalysisRestoresModels(t *testing.T) {
	// The perturbation must not leak: a second Analyze reproduces the
	// baseline.
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, 0.83)))
	if err != nil {
		t.Fatal(err)
	}
	before, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SensitivityAnalysis(0.05); err != nil {
		t.Fatal(err)
	}
	after, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Paths {
		if before.Paths[i].Reachability != after.Paths[i].Reachability {
			t.Fatal("sensitivity analysis mutated the analyzer state")
		}
	}
}

func TestSensitivityAnalysisPerLinkModels(t *testing.T) {
	// With one poor link on the bottleneck path, improving it must both
	// top the mean ranking and lift the worst path.
	net, sources, etaA := typicalSetup(t)
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the n9-n6 link (only path 9 uses it).
	p9links := routes[sources[8]].Links()
	weak := p9links[0]
	a, err := New(net, etaA,
		WithUniformLinkProcess(mustAvail(t, 0.9)),
		WithLinkProcess(weak, mustAvail(t, 0.7)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := a.SensitivityAnalysis(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sens[0].Link.ID != weak {
		t.Errorf("top link = %v, want the degraded %v", sens[0].Link.ID, weak)
	}
	if sens[0].WorstGain <= 0 {
		t.Errorf("improving the unique bottleneck link should lift the minimum: %v", sens[0].WorstGain)
	}
}

func TestSensitivityAnalysisOverrideMasksPerturbation(t *testing.T) {
	// A failure injection (availability override) keeps masking the
	// perturbation, matching the analyzer's normal resolution order: the
	// injected link reports zero gain while healthy links still rank.
	net, _, etaA := typicalSetup(t)
	n3, _ := net.NodeByName("n3")
	gw, _ := net.Gateway()
	e3, _ := net.LinkBetween(n3.ID, gw)
	a, err := New(net, etaA,
		WithUniformLinkProcess(mustAvail(t, 0.83)),
		WithLinkAvailability(e3.ID, link.PermanentDown()),
	)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := a.SensitivityAnalysis(0.05)
	if err != nil {
		t.Fatal(err)
	}
	var sawInjected, sawPositive bool
	for _, s := range sens {
		if s.Link.ID == e3.ID {
			sawInjected = true
			if math.Abs(s.MeanGain) > 1e-12 || math.Abs(s.WorstGain) > 1e-12 {
				t.Errorf("injected link reports gain (%v, %v), override should mask the perturbation",
					s.MeanGain, s.WorstGain)
			}
			continue
		}
		if s.MeanGain > 0 {
			sawPositive = true
		}
	}
	if !sawInjected {
		t.Fatal("injected link missing from the ranking")
	}
	if !sawPositive {
		t.Error("no healthy link shows a positive gain")
	}
}

func TestSensitivityAnalysisValidation(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SensitivityAnalysis(0); err == nil {
		t.Error("delta 0 should error")
	}
	if _, err := a.SensitivityAnalysis(1); err == nil {
		t.Error("delta 1 should error")
	}
}
