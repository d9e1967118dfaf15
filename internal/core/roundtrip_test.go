package core

import (
	"math"
	"testing"

	"wirelesshart/internal/schedule"

	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/topology"
)

func TestAnalyzeRoundTripSymmetricMatchesConvolution(t *testing.T) {
	// Homogeneous links: the explicit downlink model must reproduce the
	// paper's symmetric shortcut exactly.
	net, sources, etaA := typicalSetup(t)
	a, err := New(net, etaA, WithUniformLinkProcess(mustAvail(t, 0.83)))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []topology.NodeID{sources[0], sources[3], sources[9]} {
		rt, err := a.AnalyzeRoundTrip(src)
		if err != nil {
			t.Fatal(err)
		}
		up, err := a.AnalyzePath(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := measures.SymmetricRoundTrip(measures.CycleFunction(up.Result), a.Is())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.CycleProbs {
			if math.Abs(rt.CycleProbs[i]-want.CycleProbs[i]) > 1e-12 {
				t.Errorf("source %d cycle %d: %v vs symmetric %v",
					src, i+1, rt.CycleProbs[i], want.CycleProbs[i])
			}
		}
	}
}

func TestAnalyzeRoundTripPaperClaim(t *testing.T) {
	// Section V-A: the loop over the 3-hop path completes in one cycle
	// with probability 0.4219^2 = 0.178. Use a 3-hop path at 0.75.
	net := topology.NewNetwork()
	gw, _ := net.AddNode("G", topology.Gateway)
	prev := gw
	var src topology.NodeID
	for _, name := range []string{"n3", "n2", "n1"} {
		id, err := net.AddNode(name, topology.FieldDevice)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddLink(id, prev); err != nil {
			t.Fatal(err)
		}
		prev = id
		src = id
	}
	sched, err := buildSlots(t, net, src, []int{3, 6, 7}, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(net, sched,
		WithUniformLinkProcess(mustAvail(t, 0.75)), WithSources(src))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := a.AnalyzeRoundTrip(src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.CycleProbs[0]-0.178) > 5e-4 {
		t.Errorf("one-cycle completion = %v, want ~0.178", rt.CycleProbs[0])
	}
}

func TestAnalyzeRoundTripAsymmetricLinks(t *testing.T) {
	// With inhomogeneous links the downlink (reversed hop order) still
	// yields the same cycle function per direction because each link is
	// attempted once per cycle regardless of order — but a broken final
	// downlink hop must kill the loop even when the uplink is fine.
	net := topology.NewNetwork()
	gw, _ := net.AddNode("G", topology.Gateway)
	relay, _ := net.AddNode("relay", topology.FieldDevice)
	dev, _ := net.AddNode("dev", topology.FieldDevice)
	l1, err := net.AddLink(relay, gw)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := net.AddLink(dev, relay)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := buildSlots(t, net, dev, []int{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(net, sched,
		WithLinkProcess(l1, mustAvail(t, 0.9)),
		WithLinkProcess(l2, mustAvail(t, 0.8)),
		WithSources(dev),
	)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := a.AnalyzeRoundTrip(dev)
	if err != nil {
		t.Fatal(err)
	}
	up, err := a.AnalyzePath(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Both directions traverse {0.8, 0.9} links once per cycle; the
	// symmetric convolution applies.
	want, err := measures.SymmetricRoundTrip(measures.CycleFunction(up.Result), 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.Completion-want.Completion) > 1e-12 {
		t.Errorf("completion %v vs %v", rt.Completion, want.Completion)
	}

	// Kill the device-side link: the loop cannot complete.
	dead, err := New(net, sched,
		WithLinkProcess(l1, mustAvail(t, 0.9)),
		WithLinkAvailability(l2, link.PermanentDown()),
		WithSources(dev),
	)
	if err != nil {
		t.Fatal(err)
	}
	rtDead, err := dead.AnalyzeRoundTrip(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rtDead.Completion != 0 {
		t.Errorf("dead link loop completion = %v, want 0", rtDead.Completion)
	}
}

func TestAnalyzeRoundTripUnknownSource(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeRoundTrip(999); err == nil {
		t.Error("unknown source should error")
	}
}

// buildSlots constructs a schedule placing src's hops at the given slots.
func buildSlots(t *testing.T, net *topology.Network, src topology.NodeID, slots []int, fup int) (*schedule.Schedule, error) {
	t.Helper()
	routes, err := net.UplinkRoutes()
	if err != nil {
		return nil, err
	}
	p := routes[src]
	s, err := schedule.New(fup)
	if err != nil {
		return nil, err
	}
	nodes := p.Nodes()
	for h := 0; h+1 < len(nodes); h++ {
		if err := s.SetTransmission(slots[h], nodes[h], nodes[h+1], src); err != nil {
			return nil, err
		}
	}
	return s, nil
}
