package core

import (
	"math"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

// typicalSetup builds the paper's typical network with schedule eta_a
// (Fup = 20) and returns everything a test needs.
func typicalSetup(t *testing.T) (*topology.Network, []topology.NodeID, *schedule.Schedule) {
	t.Helper()
	net, sources, err := topology.TypicalNetwork()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	etaA, err := schedule.Build(routes, schedule.ShortestFirst(routes), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net, sources, etaA
}

// etaB reconstructs the paper's longest-first schedule with path 7 last
// among the two-hop paths (see DESIGN.md).
func etaB(t *testing.T, net *topology.Network, sources []topology.NodeID) *schedule.Schedule {
	t.Helper()
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	order := []topology.NodeID{
		sources[8], sources[9], sources[3], sources[4], sources[5],
		sources[7], sources[6], sources[0], sources[1], sources[2],
	}
	s, err := schedule.Build(routes, order, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAvail(t *testing.T, avail float64) link.Model {
	t.Helper()
	m, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	if _, err := New(nil, etaA); err == nil {
		t.Error("nil network should error")
	}
	if _, err := New(net, nil); err == nil {
		t.Error("nil schedule should error")
	}
	// A schedule that does not cover the routes fails validation.
	bad, err := schedule.New(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, bad); err == nil {
		t.Error("uncovering schedule should error")
	}
	if _, err := New(net, etaA, WithReportingInterval(0)); err == nil {
		t.Error("Is=0 should error")
	}
	if _, err := New(net, etaA, WithDownlinkFrame(-1)); err == nil {
		t.Error("negative fdown should error")
	}
	if _, err := New(net, etaA, WithTTL(-1)); err == nil {
		t.Error("negative TTL should error")
	}
	if _, err := New(net, etaA, WithLinkAvailability(0, nil)); err == nil {
		t.Error("nil availability should error")
	}
}

func TestDefaults(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	if a.Is() != 4 {
		t.Errorf("default Is = %d, want 4", a.Is())
	}
	if a.Fdown() != 20 {
		t.Errorf("default Fdown = %d, want Fup = 20", a.Fdown())
	}
	// Default link model: BER 2e-4 -> pi(up) = 0.8304.
	if got := a.LinkProcess(0).SteadyUp(); math.Abs(got-0.8304) > 5e-4 {
		t.Errorf("default availability = %v, want 0.8304", got)
	}
	if len(a.Routes()) != 10 {
		t.Errorf("routes = %d, want 10", len(a.Routes()))
	}
}

func TestAnalyzeFig13Reachability(t *testing.T) {
	// Fig. 13: per-path reachability in the typical network. At
	// pi(up)=0.83 the 1/2/3-hop paths give 0.9992/0.9964/0.9907; at 0.693
	// the 3-hop paths drop to ~0.93.
	net, sources, etaA := typicalSetup(t)
	a, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, 0.83)))
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(na.Paths) != 10 {
		t.Fatalf("paths = %d, want 10", len(na.Paths))
	}
	wantByHops := map[int]float64{1: 0.9992, 2: 0.9964, 3: 0.9907}
	for _, pa := range na.Paths {
		want := wantByHops[pa.Path.Hops()]
		if math.Abs(pa.Reachability-want) > 2e-4 {
			t.Errorf("path from %d (%d hops): R = %v, want %v",
				pa.Source, pa.Path.Hops(), pa.Reachability, want)
		}
	}
	// Low availability: the three-hop paths are the bottleneck.
	low, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, 0.693)))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := low.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range nl.Paths {
		if pa.Path.Hops() == 3 && math.Abs(pa.Reachability-0.924) > 2e-3 {
			t.Errorf("3-hop path at 0.693: R = %v, want ~0.924", pa.Reachability)
		}
	}
	_ = sources
}

func TestAnalyzeFig15ExpectedDelays(t *testing.T) {
	// Fig. 15: with eta_a, path 10's expected delay is 421.4 ms and the
	// overall mean delay E[Gamma] is 235 ms.
	net, sources, etaA := typicalSetup(t)
	a, err := New(net, etaA) // default model is the paper's 0.8304
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var path10 *PathAnalysis
	for _, pa := range na.Paths {
		if pa.Source == sources[9] {
			path10 = pa
		}
	}
	if path10 == nil {
		t.Fatal("path 10 missing")
	}
	if math.Abs(path10.ExpectedDelayMS-421.4) > 1 {
		t.Errorf("E[tau_10] = %v ms, want 421.4", path10.ExpectedDelayMS)
	}
	if math.Abs(na.OverallMeanDelayMS-235) > 1.5 {
		t.Errorf("E[Gamma] = %v ms, want ~235", na.OverallMeanDelayMS)
	}
	// Expected delays increase along eta_a's allocation order within each
	// hop class (later last-slot means longer delay).
	for i := 1; i < 3; i++ {
		if na.Paths[i].ExpectedDelayMS <= na.Paths[i-1].ExpectedDelayMS {
			t.Error("1-hop delays should increase with slot position")
		}
	}
}

func TestAnalyzeFig14OverallDelay(t *testing.T) {
	// Fig. 14: 70.8% of messages arrive in the first cycle; 92.6% within
	// 600 ms; ~98.3% within 1000 ms.
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// First-cycle mass: delays <= 200 ms (ages <= 20 slots, cycle 1).
	if got := na.OverallDelay.CDFAt(200); math.Abs(got-0.708) > 5e-3 {
		t.Errorf("first-cycle fraction = %v, want ~0.708", got)
	}
	if got := na.OverallDelay.CDFAt(600); math.Abs(got-0.926) > 5e-3 {
		t.Errorf("mass within 600 ms = %v, want ~0.926", got)
	}
	if got := na.OverallDelay.CDFAt(1000); math.Abs(got-0.983) > 5e-3 {
		t.Errorf("mass within 1000 ms = %v, want ~0.983", got)
	}
	// The longest delay is path 10's cycle-4 arrival: (19+3*40)*10=1390ms.
	sup := na.OverallDelay.Support()
	if got := sup[len(sup)-1]; got != 1390 {
		t.Errorf("max delay = %v ms, want 1390 (paper: ~1400)", got)
	}
}

func TestAnalyzeFig16SchedulingComparison(t *testing.T) {
	// Fig. 16: under eta_b path 10 drops to ~291 ms, path 7 becomes the
	// bottleneck at ~318 ms (paper: 317.95), overall mean rises to ~272.
	net, sources, _ := typicalSetup(t)
	b := etaB(t, net, sources)
	a, err := New(net, b)
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[topology.NodeID]*PathAnalysis{}
	var maxDelay float64
	var bottleneck topology.NodeID
	for _, pa := range na.Paths {
		byID[pa.Source] = pa
		if pa.ExpectedDelayMS > maxDelay {
			maxDelay = pa.ExpectedDelayMS
			bottleneck = pa.Source
		}
	}
	if got := byID[sources[9]].ExpectedDelayMS; math.Abs(got-291) > 1 {
		t.Errorf("eta_b E[tau_10] = %v, want ~291", got)
	}
	if got := byID[sources[6]].ExpectedDelayMS; math.Abs(got-317.95) > 1 {
		t.Errorf("eta_b E[tau_7] = %v, want ~317.95", got)
	}
	if bottleneck != sources[6] {
		t.Errorf("bottleneck = %v, want path 7 (%v)", bottleneck, sources[6])
	}
	if math.Abs(na.OverallMeanDelayMS-272) > 1.5 {
		t.Errorf("eta_b E[Gamma] = %v, want ~272", na.OverallMeanDelayMS)
	}
}

func TestAnalyzeTable2UtilizationSweep(t *testing.T) {
	// Table II: utilization decreases with availability, approaching
	// 19/80 = 0.2375 for near-perfect links.
	net, _, etaA := typicalSetup(t)
	avails := []float64{0.693, 0.774, 0.83, 0.903, 0.948, 0.989}
	want := []float64{0.313, 0.297, 0.283, 0.263, 0.25, 0.24}
	var prev float64 = 1
	for i, avail := range avails {
		a, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, avail)))
		if err != nil {
			t.Fatal(err)
		}
		na, err := a.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		u := na.UtilizationExact
		if u >= prev {
			t.Errorf("utilization must decrease with availability: %v at %v", u, avail)
		}
		prev = u
		// The shape holds tightly at high availability; at low
		// availability the paper's printed values sit a few percent
		// below the exact DTMC count (see EXPERIMENTS.md).
		tol := 0.025
		if avail >= 0.9 {
			tol = 0.002
		}
		if math.Abs(u-want[i]) > tol {
			t.Errorf("avail %v: U = %v, want ~%v", avail, u, want[i])
		}
	}
}

func TestTable3RandomFailureBlockedCycle(t *testing.T) {
	// Table III, paper-compatible semantics: paths through e3 (n3-G) lose
	// their entire first cycle. Reachabilities: path 3 -> 99.51%, paths
	// 7, 8 -> 98.30%, path 10 -> 96.28%.
	net, sources, etaA := typicalSetup(t)
	n3, _ := net.NodeByName("n3")
	gw, err := net.Gateway()
	if err != nil {
		t.Fatal(err)
	}
	e3, ok := net.LinkBetween(n3.ID, gw)
	if !ok {
		t.Fatal("e3 missing")
	}
	routes, _ := net.UplinkRoutes()
	affected := topology.PathsSharedByLink(routes, e3.ID)

	// Blocked-cycle mode: every link of every affected path is blocked
	// during cycle 1 (slots 1..20).
	lm := mustAvail(t, 0.8304)
	opts := []Option{WithUniformLinkProcess(lm)}
	blockedLinks := map[topology.LinkID]bool{}
	for _, src := range affected {
		for _, lid := range routes[src].Links() {
			blockedLinks[lid] = true
		}
	}
	for lid := range blockedLinks {
		av, err := link.Blocked(lm.Steady(), 1, 21)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithLinkAvailability(lid, av))
	}
	a, err := New(net, etaA, opts...)
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[topology.NodeID]*PathAnalysis{}
	for _, pa := range na.Paths {
		byID[pa.Source] = pa
	}
	checks := []struct {
		src  topology.NodeID
		want float64
	}{
		{src: sources[2], want: 99.51}, // path 3
		{src: sources[6], want: 98.30}, // path 7
		{src: sources[7], want: 98.30}, // path 8
		{src: sources[9], want: 96.28}, // path 10
	}
	for _, c := range checks {
		if got := byID[c.src].Reachability * 100; math.Abs(got-c.want) > 0.03 {
			t.Errorf("path from %d: R = %v%%, want %v%%", c.src, got, c.want)
		}
	}
	// Unaffected paths keep their steady reachability.
	if got := byID[sources[0]].Reachability * 100; math.Abs(got-99.92) > 0.02 {
		t.Errorf("unaffected path 1: R = %v%%, want 99.92%%", got)
	}
}

func TestTable3RandomFailureExactInjection(t *testing.T) {
	// Exact per-link injection: only e3 itself is down during cycle 1.
	// Paths whose first hop is unaffected can still make progress, so
	// their reachability is at least the blocked-cycle value.
	net, sources, etaA := typicalSetup(t)
	n3, _ := net.NodeByName("n3")
	gw, _ := net.Gateway()
	e3, _ := net.LinkBetween(n3.ID, gw)
	lm := mustAvail(t, 0.8304)
	down, err := lm.DownDuring(1, 21, lm.Steady())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(net, etaA,
		WithUniformLinkProcess(lm),
		WithLinkAvailability(e3.ID, down),
	)
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[topology.NodeID]*PathAnalysis{}
	for _, pa := range na.Paths {
		byID[pa.Source] = pa
	}
	// Path 3 (1-hop over e3): identical to blocked-cycle, ~99.5%.
	if got := byID[sources[2]].Reachability * 100; math.Abs(got-99.51) > 0.1 {
		t.Errorf("path 3 exact: R = %v%%, want ~99.51%%", got)
	}
	// Path 7 (n7->n3->G): first hop works during cycle 1, so exact
	// reachability exceeds the blocked-cycle 98.30%.
	if got := byID[sources[6]].Reachability * 100; got <= 98.4 {
		t.Errorf("path 7 exact: R = %v%%, want > 98.4%% (progress during failure)", got)
	}
	// Unaffected paths unchanged.
	if got := byID[sources[3]].Reachability * 100; math.Abs(got-99.64) > 0.02 {
		t.Errorf("path 4: R = %v%%, want 99.64%%", got)
	}
}

func TestFig19FastControl(t *testing.T) {
	// Fig. 19: Is = 2 lowers every path's reachability versus Is = 4, and
	// the gap widens for longer paths and lower availabilities.
	net, _, etaA := typicalSetup(t)
	for _, avail := range []float64{0.83, 0.693} {
		fast, err := New(net, etaA,
			WithUniformLinkProcess(mustAvail(t, avail)), WithReportingInterval(2))
		if err != nil {
			t.Fatal(err)
		}
		regular, err := New(net, etaA,
			WithUniformLinkProcess(mustAvail(t, avail)), WithReportingInterval(4))
		if err != nil {
			t.Fatal(err)
		}
		nf, err := fast.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		nr, err := regular.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		var gap1, gap3 float64
		for i := range nf.Paths {
			diff := nr.Paths[i].Reachability - nf.Paths[i].Reachability
			if diff < 0 {
				t.Errorf("fast control should not beat regular: path %d", i)
			}
			switch nf.Paths[i].Path.Hops() {
			case 1:
				gap1 = diff
			case 3:
				gap3 = diff
			}
		}
		if gap3 <= gap1 {
			t.Errorf("avail %v: 3-hop gap %v should exceed 1-hop gap %v", avail, gap3, gap1)
		}
	}
}

func TestFig18ReportingIntervalOneHop(t *testing.T) {
	// Fig. 18 anchors for a single hop at pi(up) = 0.903:
	// Is=1 -> 0.903, Is=2 -> ~0.99, Is=4 -> ~0.999.
	net := topology.NewNetwork()
	gw, _ := net.AddNode("G", topology.Gateway)
	n1, _ := net.AddNode("n1", topology.FieldDevice)
	if _, err := net.AddLink(n1, gw); err != nil {
		t.Fatal(err)
	}
	routes, _ := net.UplinkRoutes()
	s, err := schedule.Build(routes, schedule.ShortestFirst(routes), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{1: 0.903, 2: 0.9906, 4: 0.99909}
	for is, w := range want {
		a, err := New(net, s,
			WithUniformLinkProcess(mustAvail(t, 0.903)), WithReportingInterval(is))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := a.AnalyzePath(n1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pa.Reachability-w) > 1e-3 {
			t.Errorf("Is=%d: R = %v, want ~%v", is, pa.Reachability, w)
		}
	}
}

func TestPredictCompositionTable4(t *testing.T) {
	// Section VI-E via the typical network: attach a new node either via
	// a 2-hop path with an Eb/N0=7 peer link (alpha) or via a 1-hop path
	// with an Eb/N0=6 peer link (beta). R_alpha = 99.46%, R_beta = 99.45%.
	net, sources, etaA := typicalSetup(t)
	a, err := New(net, etaA) // default 0.8304 availability as in the paper
	if err != nil {
		t.Fatal(err)
	}
	peer3, err := link.FromEbN0(7, 1016, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	peer4, err := link.FromEbN0(6, 1016, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	gcA, rA, err := a.PredictPeerComposition(sources[3], []link.Model{peer3}) // via 2-hop path 4
	if err != nil {
		t.Fatal(err)
	}
	gcB, rB, err := a.PredictPeerComposition(sources[0], []link.Model{peer4}) // via 1-hop path 1
	if err != nil {
		t.Fatal(err)
	}
	wantA := []float64{0.6274, 0.2694, 0.0784, 0.0193}
	for i, w := range wantA {
		if math.Abs(gcA[i]-w) > 5e-4 {
			t.Errorf("gc_alpha[%d] = %v, want %v", i, gcA[i], w)
		}
	}
	wantB := []float64{0.6573, 0.2485, 0.0707, 0.0180}
	for i, w := range wantB {
		if math.Abs(gcB[i]-w) > 5e-4 {
			t.Errorf("gc_beta[%d] = %v, want %v", i, gcB[i], w)
		}
	}
	if math.Abs(rA-0.9946) > 5e-4 || math.Abs(rB-0.9945) > 5e-4 {
		t.Errorf("R_alpha = %v (want 0.9946), R_beta = %v (want 0.9945)", rA, rB)
	}
}

func TestPredictPeerCompositionMultiHop(t *testing.T) {
	// A homogeneous 2-hop peer attached to a 1-hop existing path must
	// equal the directly built 3-hop reachability (all at 0.83).
	net, sources, etaA := typicalSetup(t)
	lm := mustAvail(t, 0.83)
	a, err := New(net, etaA, WithUniformLinkProcess(lm))
	if err != nil {
		t.Fatal(err)
	}
	gc, reach, err := a.PredictPeerComposition(sources[0], []link.Model{lm, lm})
	if err != nil {
		t.Fatal(err)
	}
	// Existing path 1 is 1-hop, peer is 2-hop: composed 3 hops.
	want, err := stats.NegBinomialReachability(3, 0.83, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reach-want) > 1e-10 {
		t.Errorf("composed R = %v, want %v", reach, want)
	}
	if len(gc) != 4 {
		t.Errorf("cycles = %v", gc)
	}
	// Validation.
	if _, _, err := a.PredictPeerComposition(sources[0], nil); err == nil {
		t.Error("empty peer should error")
	}
	tooLong := make([]link.Model, etaA.Fup())
	for i := range tooLong {
		tooLong[i] = lm
	}
	if _, _, err := a.PredictPeerComposition(sources[0], tooLong); err == nil {
		t.Error("peer longer than the frame should error")
	}
}

func TestAnalyzePathErrors(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzePath(999); err == nil {
		t.Error("unknown source should error")
	}
	if _, err := a.BuildPathModel(999); err == nil {
		t.Error("unknown source should error")
	}
}

func TestPermanentFailureNeedsRerouting(t *testing.T) {
	// A permanently failed e3 drives the reachability of all paths over
	// it to zero; re-routing (removing the link and recomputing) restores
	// connectivity via an alternative if one exists. In the typical
	// network there is no alternative, so routing must fail — exactly the
	// paper's point that permanent failures require topology repair.
	net, sources, etaA := typicalSetup(t)
	n3, _ := net.NodeByName("n3")
	gw, _ := net.Gateway()
	e3, _ := net.LinkBetween(n3.ID, gw)
	a, err := New(net, etaA, WithLinkAvailability(e3.ID, link.PermanentDown()))
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range na.Paths {
		if pa.Path.UsesLink(e3.ID) && pa.Reachability != 0 {
			t.Errorf("path from %d over dead e3: R = %v, want 0", pa.Source, pa.Reachability)
		}
		if !pa.Path.UsesLink(e3.ID) && pa.Reachability == 0 {
			t.Errorf("path from %d avoids e3 but has R = 0", pa.Source)
		}
	}
	_ = sources
}
