package wirelesshart

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wirelesshart/internal/engine"
)

func mustTypical(t *testing.T) *Network {
	t.Helper()
	n, err := Typical()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuilderValidation(t *testing.T) {
	n := New()
	if err := n.Link("a", "b"); err == nil {
		t.Error("link between unknown nodes should error")
	}
	if err := n.Gateway("G"); err != nil {
		t.Fatal(err)
	}
	if err := n.Gateway("G2"); err == nil {
		t.Error("second gateway should error")
	}
	if err := n.Device("n1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Device("n1"); err == nil {
		t.Error("duplicate device should error")
	}
	if err := n.Link("n1", "G", BER(-1)); err == nil {
		t.Error("negative BER should error")
	}
	if err := n.Link("n1", "G", Recovery(0)); err == nil {
		t.Error("zero recovery should error")
	}
	if err := n.Link("n1", "G", Availability(0.903)); err != nil {
		t.Fatal(err)
	}
	if err := n.Link("n1", "G"); err == nil {
		t.Error("duplicate link should error")
	}
}

func TestAnalyzeTypicalMatchesPaper(t *testing.T) {
	n := mustTypical(t)
	rep, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fup != 20 {
		t.Errorf("Fup = %d, want 20", rep.Fup)
	}
	if math.Abs(rep.OverallMeanDelayMS-235) > 1.5 {
		t.Errorf("E[Gamma] = %v, want ~235", rep.OverallMeanDelayMS)
	}
	p10, ok := rep.PathBySource("n10")
	if !ok {
		t.Fatal("n10 missing")
	}
	if math.Abs(p10.ExpectedDelayMS-421.4) > 1 {
		t.Errorf("E[tau_10] = %v, want 421.4", p10.ExpectedDelayMS)
	}
	if p10.Hops != 3 || len(p10.Route) != 4 || p10.Route[0] != "n10" {
		t.Errorf("path 10 route = %v", p10.Route)
	}
	if len(p10.Slots) != 3 || p10.Slots[2] != 19 {
		t.Errorf("path 10 slots = %v", p10.Slots)
	}
	if !strings.Contains(rep.Schedule, "<n10,n7>") {
		t.Errorf("schedule missing eta entries: %s", rep.Schedule)
	}
	if p10.ExpectedIntervalsToLoss < 50 {
		t.Errorf("E[N] = %v, want > 50 at R=0.99", p10.ExpectedIntervalsToLoss)
	}
	if len(rep.OverallDelay) == 0 || rep.Utilization <= 0 {
		t.Error("overall measures missing")
	}
	// Loop completion: below R^2 (late uplink arrivals leave no downlink
	// time) but positive and above the one-cycle product.
	if p10.LoopCompletion <= 0 || p10.LoopCompletion >= p10.Reachability*p10.Reachability {
		t.Errorf("loop completion = %v, want in (0, R^2=%v)",
			p10.LoopCompletion, p10.Reachability*p10.Reachability)
	}
	firstCycle := p10.CycleProbs[0] * p10.CycleProbs[0]
	if math.Abs(p10.LoopCycleProbs[0]-firstCycle) > 1e-12 {
		t.Errorf("one-cycle loop = %v, want q1^2 = %v", p10.LoopCycleProbs[0], firstCycle)
	}
	// Percentiles: path 10's delays are 190/590/990/1390 ms; with cycle
	// probabilities ~0.578/0.294/0.100/0.028 the 95th percentile falls at
	// 990 ms and the 99th at 1390 ms.
	if p10.DelayP95MS != 990 || p10.DelayP99MS != 1390 {
		t.Errorf("p95/p99 = %v/%v, want 990/1390", p10.DelayP95MS, p10.DelayP99MS)
	}
	if p10.DelayStdDevMS <= 0 {
		t.Error("delay jitter should be positive")
	}
}

func TestAnalyzeOptions(t *testing.T) {
	n := mustTypical(t)
	if _, err := n.Analyze(ReportingInterval(0)); err == nil {
		t.Error("Is=0 should error")
	}
	if _, err := n.Analyze(TTL(-1)); err == nil {
		t.Error("negative TTL should error")
	}
	if _, err := n.Analyze(DownlinkFrame(-1)); err == nil {
		t.Error("negative Fdown should error")
	}
	if _, err := n.Analyze(Policy(SchedulePolicy(9))); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := n.Analyze(ExtraIdleSlots(-1)); err == nil {
		t.Error("negative padding should error")
	}
	if _, err := n.Analyze(Priority()); err == nil {
		t.Error("empty priority should error")
	}
	if _, err := n.Analyze(Priority("zzz")); err == nil {
		t.Error("unknown priority node should error")
	}
}

func TestAnalyzeEtaBViaPriority(t *testing.T) {
	n := mustTypical(t)
	rep, err := n.Analyze(Priority("n9", "n10", "n4", "n5", "n6", "n8", "n7", "n1", "n2", "n3"))
	if err != nil {
		t.Fatal(err)
	}
	p10, _ := rep.PathBySource("n10")
	if math.Abs(p10.ExpectedDelayMS-291) > 1 {
		t.Errorf("eta_b E[tau_10] = %v, want ~291", p10.ExpectedDelayMS)
	}
	p7, _ := rep.PathBySource("n7")
	if math.Abs(p7.ExpectedDelayMS-317.95) > 1 {
		t.Errorf("eta_b E[tau_7] = %v, want ~317.95", p7.ExpectedDelayMS)
	}
	if math.Abs(rep.OverallMeanDelayMS-272) > 1.5 {
		t.Errorf("eta_b E[Gamma] = %v, want ~272", rep.OverallMeanDelayMS)
	}
}

func TestAnalyzeLongestFirstPolicy(t *testing.T) {
	n := mustTypical(t)
	rep, err := n.Analyze(Policy(LongestFirst))
	if err != nil {
		t.Fatal(err)
	}
	// Path 9 goes first under longest-first: slots 1-3.
	p9, _ := rep.PathBySource("n9")
	if len(p9.Slots) != 3 || p9.Slots[0] != 1 {
		t.Errorf("longest-first path 9 slots = %v", p9.Slots)
	}
}

func TestAnalyzeMultiChannel(t *testing.T) {
	n := mustTypical(t)
	single, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := n.Analyze(Channels(2))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Fup >= single.Fup {
		t.Errorf("2-channel Fup %d should beat single-channel %d", multi.Fup, single.Fup)
	}
	if multi.OverallMeanDelayMS >= single.OverallMeanDelayMS {
		t.Errorf("2-channel E[Gamma] %v should beat %v",
			multi.OverallMeanDelayMS, single.OverallMeanDelayMS)
	}
	// Reachability unchanged: same number of attempts per interval.
	for _, mp := range multi.Paths {
		sp, _ := single.PathBySource(mp.Source)
		if math.Abs(mp.Reachability-sp.Reachability) > 1e-12 {
			t.Errorf("path %s reachability changed: %v vs %v",
				mp.Source, mp.Reachability, sp.Reachability)
		}
	}
	if !strings.Contains(multi.Schedule, "|") {
		t.Errorf("multi-channel schedule should show parallel slots: %s", multi.Schedule)
	}
	if _, err := n.Analyze(Channels(0)); err == nil {
		t.Error("Channels(0) should error")
	}
	if _, err := n.Analyze(Channels(17)); err == nil {
		t.Error("Channels(17) should error")
	}
}

func TestSimulateMultiChannelMatchesAnalyze(t *testing.T) {
	// The simulator executes multi-channel schedules too: parallel
	// transmissions in one slot, same reachability and delays as the
	// analyzer predicts.
	n := mustTypical(t)
	rep, err := n.Analyze(Channels(2))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := n.Simulate(6000, 21, Channels(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sim.Paths {
		ap, ok := rep.PathBySource(sp.Source)
		if !ok {
			t.Fatalf("path %s missing", sp.Source)
		}
		tol := math.Max(4*sp.ReachabilityCI, 0.006)
		if math.Abs(sp.Reachability-ap.Reachability) > tol {
			t.Errorf("path %s: sim %v vs analytic %v", sp.Source, sp.Reachability, ap.Reachability)
		}
		if math.Abs(sp.ExpectedDelayMS-ap.ExpectedDelayMS) > 12 {
			t.Errorf("path %s: delay sim %v vs analytic %v",
				sp.Source, sp.ExpectedDelayMS, ap.ExpectedDelayMS)
		}
	}
}

func TestRoutes(t *testing.T) {
	n := mustTypical(t)
	routes, err := n.Routes()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n9", "n6", "n2", "G"}
	got := routes["n9"]
	if len(got) != len(want) {
		t.Fatalf("route n9 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("route n9[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLinkDownDuringInjection(t *testing.T) {
	// e3 (n3-G) down for the first cycle: path 10's reachability falls
	// below the clean value but stays above the blocked-cycle bound.
	n := mustTypical(t)
	clean, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	injected, err := n.Analyze(LinkDownDuring("n3", "G", 1, 21))
	if err != nil {
		t.Fatal(err)
	}
	c10, _ := clean.PathBySource("n10")
	i10, _ := injected.PathBySource("n10")
	if !(i10.Reachability < c10.Reachability) {
		t.Errorf("injection should reduce reachability: %v vs %v", i10.Reachability, c10.Reachability)
	}
	if i10.Reachability < 0.9628-1e-3 {
		t.Errorf("exact injection %v below blocked-cycle bound 0.9628", i10.Reachability)
	}
	// Unaffected path keeps its reachability.
	c1, _ := clean.PathBySource("n1")
	i1, _ := injected.PathBySource("n1")
	if math.Abs(c1.Reachability-i1.Reachability) > 1e-12 {
		t.Error("unaffected path changed")
	}
	if _, err := n.Analyze(LinkDownDuring("zz", "G", 1, 5)); err == nil {
		t.Error("unknown link should error")
	}
	if _, err := n.Analyze(LinkDownDuring("n3", "G", 5, 1)); err == nil {
		t.Error("invalid window should error")
	}
}

func TestLinkPermanentlyDown(t *testing.T) {
	n := mustTypical(t)
	rep, err := n.Analyze(LinkPermanentlyDown("n3", "G"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"n3", "n7", "n8", "n10"} {
		p, _ := rep.PathBySource(name)
		if p.Reachability != 0 {
			t.Errorf("path %s over dead e3: R = %v, want 0", name, p.Reachability)
		}
	}
	p1, _ := rep.PathBySource("n1")
	if p1.Reachability == 0 {
		t.Error("path n1 should be unaffected")
	}
	if _, err := n.Analyze(LinkPermanentlyDown("zz", "G")); err == nil {
		t.Error("unknown link should error")
	}
}

func TestSimulateMatchesAnalyze(t *testing.T) {
	n := mustTypical(t)
	rep, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := n.Simulate(8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Intervals != 8000 {
		t.Errorf("intervals = %d", sim.Intervals)
	}
	for _, sp := range sim.Paths {
		ap, ok := rep.PathBySource(sp.Source)
		if !ok {
			t.Fatalf("path %s missing from analysis", sp.Source)
		}
		tol := math.Max(4*sp.ReachabilityCI, 0.005)
		if math.Abs(sp.Reachability-ap.Reachability) > tol {
			t.Errorf("path %s: sim %v vs analytic %v", sp.Source, sp.Reachability, ap.Reachability)
		}
	}
	if math.Abs(sim.Utilization-rep.Utilization) > 0.01 {
		t.Errorf("sim utilization %v vs analytic %v", sim.Utilization, rep.Utilization)
	}
	if _, ok := sim.PathBySource("zzz"); ok {
		t.Error("unknown source should report false")
	}
}

func TestSimulateWithInjection(t *testing.T) {
	n := mustTypical(t)
	sim, err := n.Simulate(4000, 9, LinkDownDuring("n3", "G", 1, 21))
	if err != nil {
		t.Fatal(err)
	}
	p3, _ := sim.PathBySource("n3")
	// Blocked first cycle: ~0.9951 expected.
	if math.Abs(p3.Reachability-0.9951) > 0.01 {
		t.Errorf("injected sim R = %v, want ~0.9951", p3.Reachability)
	}
	if p3.CycleProbs[0] != 0 {
		t.Error("no cycle-1 deliveries during blocked cycle")
	}
}

func TestSuggestImprovements(t *testing.T) {
	n := mustTypical(t)
	sugg, err := n.SuggestImprovements(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 10 {
		t.Fatalf("suggestions = %d, want 10", len(sugg))
	}
	// e3 = n3-G tops the ranking (shared by 4 paths).
	top := sugg[0]
	key := top.A + top.B
	if key != "n3G" && key != "Gn3" {
		t.Errorf("top suggestion = %s-%s, want n3-G", top.A, top.B)
	}
	if top.SharedBy != 4 || top.MeanReachabilityGain <= 0 {
		t.Errorf("top suggestion = %+v", top)
	}
	if _, err := n.SuggestImprovements(0); err == nil {
		t.Error("delta 0 should error")
	}
}

func TestPredictAttachmentTable4(t *testing.T) {
	n := mustTypical(t)
	alpha, err := n.PredictAttachment("n4", 7)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := n.PredictAttachment("n1", 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha.Reachability-0.9946) > 5e-4 {
		t.Errorf("R_alpha = %v, want 0.9946", alpha.Reachability)
	}
	if math.Abs(beta.Reachability-0.9945) > 5e-4 {
		t.Errorf("R_beta = %v, want 0.9945", beta.Reachability)
	}
	if alpha.Hops != 3 || beta.Hops != 2 {
		t.Errorf("hops = %d, %d, want 3, 2", alpha.Hops, beta.Hops)
	}
	if _, err := n.PredictAttachment("zzz", 7); err == nil {
		t.Error("unknown attachment node should error")
	}
	if _, err := n.PredictAttachment("n1", -1); err == nil {
		t.Error("negative SNR should error")
	}
}

func TestPredictMultiHopAttachment(t *testing.T) {
	// Two peer hops at excellent SNR via the 1-hop path n1: composed 3
	// hops, reachability just below the excellent-link bound.
	n := mustTypical(t)
	pred, err := n.PredictMultiHopAttachment("n1", []float64{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Hops != 3 {
		t.Errorf("hops = %d, want 3", pred.Hops)
	}
	// Each Eb/N0=12 hop is nearly perfect, so the composition is close
	// to the existing 1-hop reachability.
	single, err := n.PredictAttachment("n1", 12)
	if err != nil {
		t.Fatal(err)
	}
	if !(pred.Reachability < single.Reachability) {
		t.Errorf("extra hop should cost reachability: %v vs %v",
			pred.Reachability, single.Reachability)
	}
	if pred.Reachability < 0.99 {
		t.Errorf("excellent 3-hop composition R = %v", pred.Reachability)
	}
	if _, err := n.PredictMultiHopAttachment("n1", nil); err == nil {
		t.Error("empty peer path should error")
	}
}

func TestAccessPointPattern(t *testing.T) {
	// The paper: "Each gateway can support one or more Access Points".
	// Model APs as devices with perfect wired links to the gateway:
	// reachability then reflects only the radio hops.
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Gateway("G"))
	for _, ap := range []string{"ap1", "ap2"} {
		must(n.Device(ap))
		must(n.Link(ap, "G", FailureProb(0))) // wired backhaul
	}
	must(n.Device("sensor1"))
	must(n.Device("sensor2"))
	must(n.Link("sensor1", "ap1", Availability(0.903)))
	must(n.Link("sensor2", "ap2", Availability(0.903)))

	rep, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sensor1", "sensor2"} {
		p, ok := rep.PathBySource(name)
		if !ok {
			t.Fatalf("path %s missing", name)
		}
		if p.Hops != 2 {
			t.Errorf("%s hops = %d, want 2 (radio + wired)", name, p.Hops)
		}
		// The wired hop never fails, so R equals the 1-hop radio value.
		want, err := stats2Reach(0.903, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Reachability-want) > 1e-9 {
			t.Errorf("%s R = %v, want %v (radio-only)", name, p.Reachability, want)
		}
	}
	// The AP's own "path" is the perfect wired hop.
	ap, _ := rep.PathBySource("ap1")
	if ap.Reachability != 1 {
		t.Errorf("AP wired reachability = %v, want 1", ap.Reachability)
	}
}

// stats2Reach is the 1-hop closed form sum ps*pf^(i-1) over Is cycles.
func stats2Reach(ps float64, is int) (float64, error) {
	r := 0.0
	pf := 1 - ps
	term := ps
	for i := 0; i < is; i++ {
		r += term
		term *= pf
	}
	return r, nil
}

func TestExamplePathFig6(t *testing.T) {
	cycles, err := ExamplePath([]int{3, 6, 7}, 7, 4, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	for i, w := range want {
		if math.Abs(cycles[i]-w) > 5e-5 {
			t.Errorf("cycle %d = %v, want %v", i+1, cycles[i], w)
		}
	}
	if _, err := ExamplePath(nil, 7, 4, 0.75); err == nil {
		t.Error("empty slots should error")
	}
	if _, err := ExamplePath([]int{1}, 7, 4, 0); err == nil {
		t.Error("zero availability should error")
	}
}

func TestLinkOptionVariants(t *testing.T) {
	n := New()
	if err := n.Gateway("G"); err != nil {
		t.Fatal(err)
	}
	for i, opt := range []LinkOption{BER(1e-4), EbN0(7), Availability(0.903), FailureProb(0.0966)} {
		name := string(rune('a' + i))
		if err := n.Device(name); err != nil {
			t.Fatal(err)
		}
		if err := n.Link(name, "G", opt); err != nil {
			t.Fatalf("option %d: %v", i, err)
		}
	}
	rep, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// BER 1e-4 and FailureProb 0.0966 and Availability 0.903 coincide;
	// EbN0=7 gives p_fl 0.089 (slightly better).
	a, _ := rep.PathBySource("a")
	c, _ := rep.PathBySource("c")
	d, _ := rep.PathBySource("d")
	if math.Abs(a.Reachability-c.Reachability) > 1e-4 || math.Abs(a.Reachability-d.Reachability) > 1e-4 {
		t.Error("equivalent parameterizations disagree")
	}
	b, _ := rep.PathBySource("b")
	if b.Reachability <= a.Reachability {
		t.Error("Eb/N0=7 link should slightly beat BER 1e-4")
	}
}

func TestExplicitSlotsReproducesPaperSchedule(t *testing.T) {
	// The Section V-A schedule (slots 3, 6, 7 of a 7-slot frame) through
	// the public API: E[tau] = 190.8 ms exactly as the paper.
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Gateway("G"))
	for _, d := range []string{"n3", "n2", "n1"} {
		must(n.Device(d))
	}
	must(n.Link("n3", "G", Availability(0.75)))
	must(n.Link("n2", "n3", Availability(0.75)))
	must(n.Link("n1", "n2", Availability(0.75)))

	rep, err := n.Analyze(ExplicitSlots(7, map[string][]int{"n1": {3, 6, 7}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 1 {
		t.Fatalf("paths = %d, want 1 (relays excluded)", len(rep.Paths))
	}
	p := rep.Paths[0]
	if math.Abs(p.Reachability-0.9624) > 5e-5 {
		t.Errorf("R = %v, want 0.9624", p.Reachability)
	}
	if math.Abs(p.ExpectedDelayMS-190.8) > 0.1 {
		t.Errorf("E[tau] = %v, want 190.8", p.ExpectedDelayMS)
	}
	if len(p.Slots) != 3 || p.Slots[0] != 3 || p.Slots[2] != 7 {
		t.Errorf("slots = %v, want [3 6 7]", p.Slots)
	}
}

func TestExplicitSlotsValidation(t *testing.T) {
	n := mustTypical(t)
	if _, err := n.Analyze(ExplicitSlots(0, map[string][]int{"n1": {1}})); err == nil {
		t.Error("zero frame should error")
	}
	if _, err := n.Analyze(ExplicitSlots(7, nil)); err == nil {
		t.Error("empty explicit map should error")
	}
	if _, err := n.Analyze(ExplicitSlots(7, map[string][]int{"zzz": {1}})); err == nil {
		t.Error("unknown source should error")
	}
	if _, err := n.Analyze(ExplicitSlots(7, map[string][]int{"n10": {1}})); err == nil {
		t.Error("slot count mismatch should error")
	}
	if _, err := n.Analyze(ExplicitSlots(7, map[string][]int{"n1": {9}})); err == nil {
		t.Error("slot beyond frame should error")
	}
}

// facadeCase is one row of the facade option table: a network, analysis
// options, and the attachment probe PredictMultiHopAttachment runs on it.
type facadeCase struct {
	name  string
	net   *Network
	opts  []Option
	via   string
	ebN0s []float64
}

// mixedNetwork is a small mesh whose links cover every LinkOption: BER,
// EbN0, Availability, FailureProb, a Recovery override and the default.
func mixedNetwork(t *testing.T) *Network {
	t.Helper()
	n := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Gateway("G"))
	for _, d := range []string{"a", "b", "c", "d", "e", "f"} {
		must(n.Device(d))
	}
	must(n.Link("a", "G", BER(1e-4)))
	must(n.Link("b", "G", EbN0(8)))
	must(n.Link("c", "a", Availability(0.9)))
	must(n.Link("d", "b", FailureProb(0.15)))
	must(n.Link("e", "c", Availability(0.85), Recovery(0.7)))
	must(n.Link("f", "d"))
	return n
}

// facadeCases is the option table shared by the facade contract test and
// the facade golden.
func facadeCases(t *testing.T) []facadeCase {
	t.Helper()
	typ := func(name string, opts ...Option) facadeCase {
		return facadeCase{name: name, net: mustTypical(t), opts: opts, via: "n4", ebN0s: []float64{6.5, 7}}
	}
	return []facadeCase{
		typ("defaults"),
		typ("is2", ReportingInterval(2)),
		typ("longest-first", Policy(LongestFirst)),
		typ("priority", Priority("n10", "n9", "n8", "n7", "n6", "n5", "n4", "n3", "n2", "n1")),
		typ("ttl", TTL(50)),
		typ("fdown12", DownlinkFrame(12)),
		typ("channels3", Channels(3)),
		typ("no-idle", ExtraIdleSlots(0)),
		typ("window", LinkDownDuring("G", "n3", 5, 25)),
		typ("permanent", LinkPermanentlyDown("n2", "G")),
		{name: "explicit", net: mustTypical(t), via: "n10", ebN0s: []float64{6.5, 7},
			opts: []Option{ExplicitSlots(7, map[string][]int{"n10": {3, 6, 7}, "n1": {1}})}},
		{name: "mixed-links", net: mixedNetwork(t), opts: []Option{ReportingInterval(3)}, via: "c", ebN0s: []float64{7.5}},
	}
}

// facadeOutcome records every facade output of one case; a failed call
// records only that it failed, never its error text.
type facadeOutcome struct {
	Name        string
	Analyze     *Report          `json:",omitempty"`
	AnalyzeErr  bool             `json:",omitempty"`
	Simulate    *SimReport       `json:",omitempty"`
	SimulateErr bool             `json:",omitempty"`
	Suggest     []LinkSuggestion `json:",omitempty"`
	SuggestErr  bool             `json:",omitempty"`
	Predict     *Prediction      `json:",omitempty"`
	PredictErr  bool             `json:",omitempty"`
}

// facadeGolden runs Analyze, Simulate(300 intervals, seed 7),
// SuggestImprovements(0.05) and PredictMultiHopAttachment on every case of
// the option table plus DownlinkFrame(0), and encodes the outcomes as
// indented JSON.
func facadeGolden(t *testing.T) []byte {
	t.Helper()
	cases := append(facadeCases(t), facadeCase{
		name: "fdown0", net: mustTypical(t), opts: []Option{DownlinkFrame(0)}, via: "n4", ebN0s: []float64{6.5, 7},
	})
	var out []facadeOutcome
	for _, c := range cases {
		o := facadeOutcome{Name: c.name}
		var err error
		if o.Analyze, err = c.net.Analyze(c.opts...); err != nil {
			o.AnalyzeErr = true
		}
		if o.Simulate, err = c.net.Simulate(300, 7, c.opts...); err != nil {
			o.SimulateErr = true
		}
		if o.Suggest, err = c.net.SuggestImprovements(0.05, c.opts...); err != nil {
			o.SuggestErr = true
		}
		if o.Predict, err = c.net.PredictMultiHopAttachment(c.via, c.ebN0s, c.opts...); err != nil {
			o.PredictErr = true
		}
		out = append(out, o)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestFacadeGolden pins every facade output on the option table to
// testdata/facade.golden.json byte for byte.
func TestFacadeGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "facade.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := facadeGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("facade outputs differ from testdata/facade.golden.json at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("facade outputs have %d lines, golden has %d", len(gl), len(wl))
}

// TestAnalyzeMatchesExportedSpec checks the Spec contract: evaluating
// n.Spec(opts...) on the engine yields bit for bit what Analyze(opts...)
// reports.
func TestAnalyzeMatchesExportedSpec(t *testing.T) {
	eng := engine.New(engine.Config{})
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameDelay := func(a []DelayPoint, b []engine.DelayPoint) bool {
		return slices.EqualFunc(a, b, func(x DelayPoint, y engine.DelayPoint) bool {
			return same(x.MS, y.MS) && same(x.Prob, y.Prob)
		})
	}
	for _, c := range facadeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			rep, err := c.net.Analyze(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			s, err := c.net.Spec(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Evaluate(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fup != res.Fup || rep.Schedule != res.Schedule {
				t.Errorf("schedule: Analyze Fup %d %q, engine Fup %d %q", rep.Fup, rep.Schedule, res.Fup, res.Schedule)
			}
			if !same(rep.OverallMeanDelayMS, res.OverallMeanDelayMS) || !same(rep.Utilization, res.Utilization) {
				t.Errorf("aggregates: Analyze E[Gamma] %v U %v, engine %v %v",
					rep.OverallMeanDelayMS, rep.Utilization, res.OverallMeanDelayMS, res.Utilization)
			}
			if !sameDelay(rep.OverallDelay, res.OverallDelay) {
				t.Error("overall delay distributions differ")
			}
			if len(rep.Paths) != len(res.Paths) {
				t.Fatalf("Analyze has %d paths, engine %d", len(rep.Paths), len(res.Paths))
			}
			for i, p := range rep.Paths {
				q := res.Paths[i]
				if p.Source != q.Source || !slices.Equal(p.Route, q.Route) {
					t.Fatalf("path %d: Analyze %s %v, engine %s %v", i, p.Source, p.Route, q.Source, q.Route)
				}
				if !slices.Equal(p.Slots, q.Slots) {
					t.Errorf("%s slots: Analyze %v, engine %v", p.Source, p.Slots, q.Slots)
				}
				if !same(p.Reachability, q.Reachability) || !same(p.ExpectedDelayMS, q.ExpectedDelayMS) ||
					!same(p.Utilization, q.Utilization) {
					t.Errorf("%s: Analyze R %v E[tau] %v U %v, engine %v %v %v", p.Source,
						p.Reachability, p.ExpectedDelayMS, p.Utilization,
						q.Reachability, q.ExpectedDelayMS, q.Utilization)
				}
				if !slices.EqualFunc(p.CycleProbs, q.CycleProbs, same) {
					t.Errorf("%s cycle probabilities differ: %v vs %v", p.Source, p.CycleProbs, q.CycleProbs)
				}
				if !sameDelay(p.DelayDistribution, q.Delay) {
					t.Errorf("%s delay distributions differ", p.Source)
				}
			}
		})
	}
}

// TestChannelsRequireGeneratedSchedule checks that Channels with
// ExplicitSlots is rejected, as spec.Build and the server reject a spec
// declaring channels on explicit slots.
func TestChannelsRequireGeneratedSchedule(t *testing.T) {
	n := mustTypical(t)
	opts := []Option{ExplicitSlots(7, map[string][]int{"n10": {3, 6, 7}}), Channels(2)}
	if _, err := n.Analyze(opts...); err == nil {
		t.Error("Analyze accepted Channels with ExplicitSlots")
	}
	if _, err := n.Simulate(100, 1, opts...); err == nil {
		t.Error("Simulate accepted Channels with ExplicitSlots")
	}
	s, err := n.Spec(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Error("spec.Build accepted the exported channels-with-explicit-slots spec")
	}
}
