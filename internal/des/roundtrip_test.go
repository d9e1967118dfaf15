package des

import (
	"math"
	"slices"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/topology"
)

func TestRunRoundTripValidation(t *testing.T) {
	net, s, _ := chainNetwork(t, 1, 5)
	links := gilbertLinks(t, net, 0.9)
	base := RoundTripConfig{Net: net, Sched: s, Is: 4, Intervals: 10, Links: links}

	bad := base
	bad.Net = nil
	if _, err := RunRoundTrip(bad); err == nil {
		t.Error("nil network should error")
	}
	bad = base
	bad.Is = 0
	if _, err := RunRoundTrip(bad); err == nil {
		t.Error("Is=0 should error")
	}
	bad = base
	bad.Intervals = 0
	if _, err := RunRoundTrip(bad); err == nil {
		t.Error("zero intervals should error")
	}
	bad = base
	bad.Links = map[topology.LinkID]LinkProcess{}
	if _, err := RunRoundTrip(bad); err == nil {
		t.Error("missing link process should error")
	}
}

func TestRunRoundTripPerfectLinks(t *testing.T) {
	net, s, src := chainNetwork(t, 3, 7)
	m, err := link.New(0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRoundTrip(RoundTripConfig{
		Net: net, Sched: s, Is: 2, Intervals: 300, Seed: 2,
		Links: uniformGilbert(net, func() LinkProcess { return NewGilbertSteady(m) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := res.LoopBySource(src)
	if !ok {
		t.Fatal("loop missing")
	}
	if l.Completion() != 1 {
		t.Errorf("perfect links loop completion = %v, want 1", l.Completion())
	}
	if l.CycleCounts[0] != l.Generated {
		t.Error("all loops should finish in one cycle on perfect links")
	}
}

func TestRunRoundTripMatchesAnalyticComposition(t *testing.T) {
	// The paper's Section V-A claim: on the 3-hop example path at
	// pi(up) = 0.75 the loop completes in one cycle with probability
	// 0.4219^2 = 0.178. The simulated loop (with real cross-direction
	// link-state correlation) must land near the independence-based
	// composition: the correlation term is lambda^k over the >= 2-slot
	// gap, well under a percent.
	net, s, src := chainNetwork(t, 3, 7)
	res, err := RunRoundTrip(RoundTripConfig{
		Net: net, Sched: s, Is: 4, Intervals: 80000, Seed: 5,
		Links: gilbertLinks(t, net, 0.75),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := res.LoopBySource(src)
	cp := l.CycleProbs()
	if math.Abs(cp[0]-0.178) > 0.008 {
		t.Errorf("one-cycle loop completion = %v, want ~0.178", cp[0])
	}
	// Total completion: the analytic symmetric composition gives
	// sum_k (g*g)(k) for k <= 4 with g = the Fig. 6 cycle function:
	// 0.178 + 2*0.4219*0.3164 + (2*0.4219*0.1582 + 0.3164^2) + ...
	g := []float64{0.421875, 0.316406, 0.158203, 0.065918}
	want := 0.0
	for m := 0; m < 4; m++ {
		for n := 0; n < 4; n++ {
			if m+n < 4 {
				want += g[m] * g[n]
			}
		}
	}
	ci, err := l.CompletionCI()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(l.Completion() - want); diff > math.Max(4*ci, 0.01) {
		t.Errorf("loop completion = %v, independence composition %v (diff %v)",
			l.Completion(), want, diff)
	}
}

func TestRunRoundTripDeterministic(t *testing.T) {
	net, s, src := chainNetwork(t, 2, 5)
	run := func() float64 {
		res, err := RunRoundTrip(RoundTripConfig{
			Net: net, Sched: s, Is: 4, Intervals: 300, Seed: 11,
			Links: gilbertLinks(t, net, 0.83),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, _ := res.LoopBySource(src)
		return l.Completion()
	}
	if run() != run() {
		t.Error("same seed must reproduce the same loops")
	}
}

func TestRunRoundTripCompletionBelowOneWay(t *testing.T) {
	// The loop needs both directions: completion <= one-way reachability.
	net, s, src := chainNetwork(t, 2, 5)
	rt, err := RunRoundTrip(RoundTripConfig{
		Net: net, Sched: s, Is: 4, Intervals: 20000, Seed: 13,
		Links: gilbertLinks(t, net, 0.83),
	})
	if err != nil {
		t.Fatal(err)
	}
	up, err := Run(Config{
		Net: net, Sched: s, Is: 4, Intervals: 20000, Seed: 13, Fdown: -1,
		Links: gilbertLinks(t, net, 0.83),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := rt.LoopBySource(src)
	p, _ := up.PathBySource(src)
	if l.Completion() >= p.Reachability() {
		t.Errorf("loop completion %v should be below one-way reachability %v",
			l.Completion(), p.Reachability())
	}
}

// TestRunRoundTripLeavesSourcesUnsorted: both runners list results in
// source-id order without reordering the caller's Sources slice.
func TestRunRoundTripLeavesSourcesUnsorted(t *testing.T) {
	net, s := starNetwork(t, 6, 8)
	links := gilbertLinks(t, net, 0.8)
	sources := []topology.NodeID{5, 2, 4}
	rt, err := RunRoundTrip(RoundTripConfig{Net: net, Sched: s, Is: 3, Intervals: 10, Seed: 3, Links: links, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Net: net, Sched: s, Is: 3, Intervals: 10, Seed: 3, Links: links, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if want := []topology.NodeID{5, 2, 4}; !slices.Equal(sources, want) {
		t.Errorf("Sources = %v after the runs, want %v unchanged", sources, want)
	}
	for i, want := range []topology.NodeID{2, 4, 5} {
		if rt.Loops[i].Source != want || res.Paths[i].Source != want {
			t.Errorf("result %d: loop source %d, path source %d, want %d", i, rt.Loops[i].Source, res.Paths[i].Source, want)
		}
	}
}
