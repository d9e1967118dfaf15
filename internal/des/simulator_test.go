package des

import (
	"math"
	"reflect"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/topology"
)

// uniformGilbert builds a link-process map with one newProc() process per
// network link.
func uniformGilbert(net *topology.Network, newProc func() LinkProcess) map[topology.LinkID]LinkProcess {
	out := map[topology.LinkID]LinkProcess{}
	for _, l := range net.Links() {
		out[l.ID] = newProc()
	}
	return out
}

// chainNetwork builds a linear n-hop network source -> relays -> G with a
// consecutive-slot schedule inside a frame of fup slots.
func chainNetwork(t *testing.T, hops, fup int) (*topology.Network, *schedule.Schedule, topology.NodeID) {
	t.Helper()
	net := topology.NewNetwork()
	gw, err := net.AddNode("G", topology.Gateway)
	if err != nil {
		t.Fatal(err)
	}
	prev := gw
	var src topology.NodeID
	for i := hops; i >= 1; i-- {
		id, err := net.AddNode(nodeName(i), topology.FieldDevice)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddLink(id, prev); err != nil {
			t.Fatal(err)
		}
		prev = id
		src = id
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(routes, schedule.ShortestFirst(routes), 1, fup-hops)
	if err != nil {
		t.Fatal(err)
	}
	return net, s, src
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i))
}

func gilbertLinks(t *testing.T, net *topology.Network, avail float64) map[topology.LinkID]LinkProcess {
	t.Helper()
	m, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	return uniformGilbert(net, func() LinkProcess { return NewGilbertSteady(m) })
}

func TestRunValidation(t *testing.T) {
	net, s, _ := chainNetwork(t, 1, 5)
	links := gilbertLinks(t, net, 0.9)
	base := Config{Net: net, Sched: s, Is: 4, Intervals: 10, Links: links}

	bad := base
	bad.Net = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil network should error")
	}
	bad = base
	bad.Is = 0
	if _, err := Run(bad); err == nil {
		t.Error("Is=0 should error")
	}
	bad = base
	bad.Intervals = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero intervals should error")
	}
	bad = base
	bad.TTL = 999
	if _, err := Run(bad); err == nil {
		t.Error("TTL beyond horizon should error")
	}
	bad = base
	bad.Links = map[topology.LinkID]LinkProcess{}
	if _, err := Run(bad); err == nil {
		t.Error("missing link process should error")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	net, s, src := chainNetwork(t, 2, 5)
	run := func() float64 {
		res, err := Run(Config{
			Net: net, Sched: s, Is: 4, Intervals: 500, Seed: 42,
			Fdown: -1, Links: gilbertLinks(t, net, 0.83),
		})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := res.PathBySource(src)
		if !ok {
			t.Fatal("source missing")
		}
		return p.Reachability()
	}
	if run() != run() {
		t.Error("same seed must reproduce the same result")
	}
}

func TestRunPerfectLinksAlwaysDeliver(t *testing.T) {
	net, s, src := chainNetwork(t, 3, 7)
	m, err := link.New(0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Net: net, Sched: s, Is: 2, Intervals: 200, Seed: 1, Fdown: -1,
		Links: uniformGilbert(net, func() LinkProcess { return NewGilbertSteady(m) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.PathBySource(src)
	if p.Reachability() != 1 {
		t.Errorf("perfect links: R = %v, want 1", p.Reachability())
	}
	if p.CycleCounts[0] != p.Generated {
		t.Error("perfect links should deliver everything in cycle 1")
	}
	// Attempts: exactly hops per interval.
	if p.Attempts != 3*p.Generated {
		t.Errorf("attempts = %d, want %d", p.Attempts, 3*p.Generated)
	}
}

func TestRunMatchesAnalyticExamplePath(t *testing.T) {
	// Section V-A example: 3 hops, slots 3/6/7 in a 7-slot frame,
	// pi(up) = 0.75, Is = 4. Analytic: R = 0.9624, cycle probabilities
	// 0.4219/0.3164/0.1582/0.06592, E[tau] = 190.8 ms.
	net := topology.NewNetwork()
	gw, _ := net.AddNode("G", topology.Gateway)
	n3, _ := net.AddNode("n3", topology.FieldDevice)
	n2, _ := net.AddNode("n2", topology.FieldDevice)
	n1, _ := net.AddNode("n1", topology.FieldDevice)
	for _, e := range [][2]topology.NodeID{{n3, gw}, {n2, n3}, {n1, n2}} {
		if _, err := net.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s, err := schedule.New(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []struct {
		slot     int
		from, to topology.NodeID
	}{
		{slot: 3, from: n1, to: n2},
		{slot: 6, from: n2, to: n3},
		{slot: 7, from: n3, to: gw},
	} {
		if err := s.SetTransmission(tr.slot, tr.from, tr.to, n1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Net: net, Sched: s, Is: 4, Intervals: 60000, Seed: 7, Fdown: -1,
		Links: gilbertLinks(t, net, 0.75),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.PathBySource(n1)
	if !ok {
		t.Fatal("path missing")
	}
	if math.Abs(p.Reachability()-0.9624) > 0.003 {
		t.Errorf("simulated R = %v, want ~0.9624", p.Reachability())
	}
	wantCycles := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	for i, w := range wantCycles {
		if got := p.CycleProbs()[i]; math.Abs(got-w) > 0.008 {
			t.Errorf("cycle %d: simulated %v, want ~%v", i+1, got, w)
		}
	}
	if math.Abs(p.DelaySummary.Mean()-190.8) > 2.5 {
		t.Errorf("simulated E[tau] = %v, want ~190.8", p.DelaySummary.Mean())
	}
}

func TestRunOneHopReachabilityVsClosedForm(t *testing.T) {
	// 1-hop, pi(up) = 0.903, Is = 4: R = 0.99909 (Fig. 18's right bar).
	net, s, src := chainNetwork(t, 1, 5)
	res, err := Run(Config{
		Net: net, Sched: s, Is: 4, Intervals: 60000, Seed: 3, Fdown: -1,
		Links: gilbertLinks(t, net, 0.903),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.PathBySource(src)
	ci, err := p.ReachabilityCI()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Reachability()-0.99909) > math.Max(3*ci, 0.001) {
		t.Errorf("simulated R = %v +- %v, want 0.99909", p.Reachability(), ci)
	}
}

func TestRunTTLExpiryLosses(t *testing.T) {
	// TTL = frame size: only cycle-1 deliveries survive.
	net, s, src := chainNetwork(t, 2, 5)
	res, err := Run(Config{
		Net: net, Sched: s, Is: 4, TTL: 5, Intervals: 20000, Seed: 11, Fdown: -1,
		Links: gilbertLinks(t, net, 0.75),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.PathBySource(src)
	want := 0.75 * 0.75
	if math.Abs(p.Reachability()-want) > 0.01 {
		t.Errorf("TTL-limited R = %v, want ~%v", p.Reachability(), want)
	}
	for i, c := range p.CycleCounts[1:] {
		if c != 0 {
			t.Errorf("cycle %d deliveries with TTL=5: %d", i+2, c)
		}
	}
	if p.Lost+p.Delivered != p.Generated {
		t.Error("lost+delivered != generated")
	}
}

func TestRunForcedWindowMatchesBlockedCycleAnalytic(t *testing.T) {
	// Block the only link during cycle 1: R = ps(1+pf+pf^2) over the
	// remaining three cycles (Table III's path-3 value at 0.8304: 99.51%).
	net, s, src := chainNetwork(t, 1, 20)
	m, err := link.FromAvailability(0.8304, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	links := map[topology.LinkID]LinkProcess{}
	for _, l := range net.Links() {
		links[l.ID] = &ForcedWindowProcess{Base: NewGilbertSteady(m), From: 1, To: 21}
	}
	res, err := Run(Config{
		Net: net, Sched: s, Is: 4, Intervals: 60000, Seed: 13, Fdown: -1, Links: links,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.PathBySource(src)
	if math.Abs(p.Reachability()-0.9951) > 0.002 {
		t.Errorf("blocked-cycle R = %v, want ~0.9951", p.Reachability())
	}
	if p.CycleCounts[0] != 0 {
		t.Error("no deliveries possible during the blocked first cycle")
	}
}

func TestRunNetworkUtilizationMatchesAnalytic(t *testing.T) {
	// The typical network at pi(up) = 0.948: exact utilization ~0.25
	// (Table II).
	net, _, err := topology.TypicalNetwork()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(routes, schedule.ShortestFirst(routes), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Net: net, Sched: s, Is: 4, Intervals: 20000, Seed: 17, Fdown: -1,
		Links: gilbertLinks(t, net, 0.948),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NetworkUtilization(); math.Abs(got-0.2505) > 0.003 {
		t.Errorf("simulated utilization = %v, want ~0.2505", got)
	}
	if len(res.Paths) != 10 {
		t.Errorf("paths = %d, want 10", len(res.Paths))
	}
}

func TestRunInhomogeneousLinksMatchAnalytic(t *testing.T) {
	// A 3-hop chain with three different link qualities: the simulator
	// must match the inhomogeneous path DTMC.
	net, s, src := chainNetwork(t, 3, 7)
	avails := []float64{0.95, 0.8, 0.7}
	links := map[topology.LinkID]LinkProcess{}
	models := map[topology.LinkID]link.Model{}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	for i, lid := range routes[src].Links() {
		m, err := link.FromAvailability(avails[i], link.DefaultRecoveryProb)
		if err != nil {
			t.Fatal(err)
		}
		models[lid] = m
		links[lid] = NewGilbertSteady(m)
	}
	res, err := Run(Config{
		Net: net, Sched: s, Is: 4, Intervals: 60000, Seed: 23, Fdown: -1,
		Links: links,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.PathBySource(src)
	// Analytic: build the matching path model.
	slots := s.SlotsForSource(src)
	pmLinks := make([]link.Availability, len(slots))
	for i, lid := range routes[src].Links() {
		pmLinks[i] = models[lid].Steady()
	}
	m, err := pathmodel.Build(pathmodel.Config{
		Slots: slots, Fup: s.Fup(), Is: 4, Links: pmLinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := p.ReachabilityCI()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(p.Reachability() - ana.Reachability()); diff > math.Max(4*ci, 0.004) {
		t.Errorf("inhomogeneous: sim R=%v vs analytic %v", p.Reachability(), ana.Reachability())
	}
	for i := range ana.CycleProbs {
		if math.Abs(p.CycleProbs()[i]-ana.CycleProbs[i]) > 0.01 {
			t.Errorf("cycle %d: sim %v vs analytic %v", i+1, p.CycleProbs()[i], ana.CycleProbs[i])
		}
	}
}

func TestRunMultiChannelSchedule(t *testing.T) {
	// Two sources sharing a slot over two channels: both deliver, and the
	// frame is half the single-channel length.
	net := topology.NewNetwork()
	gw, _ := net.AddNode("G", topology.Gateway)
	relay1, _ := net.AddNode("r1", topology.FieldDevice)
	relay2, _ := net.AddNode("r2", topology.FieldDevice)
	s1, _ := net.AddNode("s1", topology.FieldDevice)
	s2, _ := net.AddNode("s2", topology.FieldDevice)
	for _, e := range [][2]topology.NodeID{{relay1, gw}, {relay2, gw}, {s1, relay1}, {s2, relay2}} {
		if _, err := net.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	order := schedule.ShortestFirst(routes)
	multi, err := schedule.Build(routes, order, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := schedule.Build(routes, order, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Fup() >= single.Fup() {
		t.Fatalf("multi frame %d should beat single %d", multi.Fup(), single.Fup())
	}
	res, err := Run(Config{
		Net: net, Sched: multi, Is: 4, Intervals: 30000, Seed: 9, Fdown: -1,
		Links: gilbertLinks(t, net, 0.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	// All four paths deliver at their analytic rates: 1-hop R =
	// 0.9(1+.1+.01+.001) = 0.9999; 2-hop R = 0.81*(1+0.2+0.03+0.004).
	for _, p := range res.Paths {
		var want float64
		switch p.Hops {
		case 1:
			want = 0.9999
		case 2:
			want = 0.81 * (1 + 0.2 + 0.03 + 0.004)
		}
		ci, err := p.ReachabilityCI()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Reachability()-want) > math.Max(4*ci, 0.004) {
			t.Errorf("source %d (%d hops): R = %v, want ~%v", p.Source, p.Hops, p.Reachability(), want)
		}
	}
}

func TestPathBySourceMissing(t *testing.T) {
	r := &Result{}
	if _, ok := r.PathBySource(5); ok {
		t.Error("missing source should report false")
	}
}

// starNetwork builds several one-hop sources reporting straight to G.
func starNetwork(t *testing.T, sources, fup int) (*topology.Network, *schedule.Schedule) {
	t.Helper()
	net := topology.NewNetwork()
	gw, err := net.AddNode("G", topology.Gateway)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= sources; i++ {
		id, err := net.AddNode(nodeName(i), topology.FieldDevice)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddLink(id, gw); err != nil {
			t.Fatal(err)
		}
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(routes, schedule.ShortestFirst(routes), 1, fup-sources)
	if err != nil {
		t.Fatal(err)
	}
	return net, s
}

// With Sources nil the reporting list is derived from the routes map; it
// must come out in a canonical order, or the per-source RNG consumption
// (and so the whole sample path) would differ between identically-seeded
// runs.
func TestRunNilSourcesDeterministic(t *testing.T) {
	net, s := starNetwork(t, 6, 8)
	run := func() *Result {
		res, err := Run(Config{
			Net: net, Sched: s, Is: 3, Intervals: 100, Seed: 7,
			Fdown: -1, Links: gilbertLinks(t, net, 0.8),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: identically-seeded runs differ", trial)
		}
	}
}
