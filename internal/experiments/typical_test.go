package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// TestTypicalSpecMatchesHandBuiltNetwork pins the runners' spec
// realization of the paper's typical network against the network
// assembled by hand — topology.TypicalNetwork, its uplink routes, a
// priority schedule and core.New — under eta_a and eta_b, at the default
// BER and at every Table II availability. It also pins the direct
// indexing the runners rely on: Paths[i] is the paper's path i+1.
func TestTypicalSpecMatchesHandBuiltNetwork(t *testing.T) {
	net, sources, err := topology.TypicalNetwork()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	etaA, err := schedule.BuildPriority(routes, schedule.ShortestFirst(routes), 1)
	if err != nil {
		t.Fatal(err)
	}
	etaB, err := schedule.BuildPriority(routes, []topology.NodeID{
		sources[8], sources[9], sources[3], sources[4], sources[5],
		sources[7], sources[6], sources[0], sources[1], sources[2],
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name  string
		sched *schedule.Schedule
		spec  func(avail float64) *spec.Spec
	}{
		{name: "eta_a", sched: etaA, spec: typicalSpec},
		{name: "eta_b", sched: etaB, spec: func(avail float64) *spec.Spec { return withEtaB(typicalSpec(avail)) }},
	}
	for _, sc := range schedules {
		for _, avail := range append([]float64{0}, tab2Avails...) {
			var opts []core.Option
			if avail != 0 {
				lm, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, core.WithUniformLinkProcess(lm))
			}
			a, err := core.New(net, sc.sched, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := a.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.spec(avail).Build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Analyzer.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at pi(up)=%v: spec analysis differs from the hand-built one", sc.name, avail)
			}
			if len(got.Paths) != 10 {
				t.Fatalf("%s at pi(up)=%v: %d paths, want 10", sc.name, avail, len(got.Paths))
			}
			for i, pa := range got.Paths {
				node, err := b.Net.Node(pa.Source)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("n%d", i+1); node.Name != want {
					t.Errorf("%s: Paths[%d] starts at %s, want %s (paper path %d)", sc.name, i, node.Name, want, i+1)
				}
			}
		}
	}
}
