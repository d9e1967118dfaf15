package topology

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNewPathValidation(t *testing.T) {
	n, gw, a, b := buildTriangle(t)
	if _, err := NewPath(n, []NodeID{a}); err == nil {
		t.Error("single-node path should error")
	}
	if _, err := NewPath(n, []NodeID{b, gw}); err == nil {
		t.Error("path over missing link should error")
	}
	if _, err := NewPath(n, []NodeID{b, 99}); err == nil {
		t.Error("path with unknown node should error")
	}
	if _, err := NewPath(n, []NodeID{a, gw, a}); err == nil {
		t.Error("path revisiting a node should error")
	}
	p, err := NewPath(n, []NodeID{b, a, gw})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 || p.Source() != b {
		t.Errorf("path properties wrong: %v", p)
	}
}

func TestPathAccessorsCopy(t *testing.T) {
	n, gw, a, b := buildTriangle(t)
	p, err := NewPath(n, []NodeID{b, a, gw})
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	nodes[0] = 99
	if p.Source() == 99 {
		t.Error("Nodes() must return a copy")
	}
	links := p.Links()
	if len(links) != 2 {
		t.Fatalf("Links() = %v", links)
	}
	links[0] = 99
	if p.Links()[0] == 99 {
		t.Error("Links() must return a copy")
	}
}

func TestPathUsesLink(t *testing.T) {
	n, gw, a, b := buildTriangle(t)
	p, _ := NewPath(n, []NodeID{b, a, gw})
	l, _ := n.LinkBetween(a, gw)
	if !p.UsesLink(l.ID) {
		t.Error("path should use link a-G")
	}
	if p.UsesLink(LinkID(999)) {
		t.Error("unknown link should not be used")
	}
}

func TestPathStringsAndFormat(t *testing.T) {
	n, gw, a, b := buildTriangle(t)
	p, _ := NewPath(n, []NodeID{b, a, gw})
	if got := p.String(); !strings.Contains(got, "->") {
		t.Errorf("String() = %q", got)
	}
	if got := p.Format(n); got != "b -> a -> G" {
		t.Errorf("Format() = %q, want \"b -> a -> G\"", got)
	}
}

func TestUplinkRoutesTypicalNetwork(t *testing.T) {
	// The typical network must route exactly as the paper describes:
	// 3 one-hop, 5 two-hop, 2 three-hop paths.
	n, sources, err := TypicalNetwork()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := n.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 10 {
		t.Fatalf("got %d routes, want 10", len(routes))
	}
	wantHops := []int{1, 1, 1, 2, 2, 2, 2, 2, 3, 3}
	hopCount := map[int]int{}
	for i, src := range sources {
		p := routes[src]
		if p.Hops() != wantHops[i] {
			t.Errorf("path %d (%s): %d hops, want %d", i+1, p.Format(n), p.Hops(), wantHops[i])
		}
		hopCount[p.Hops()]++
	}
	if hopCount[1] != 3 || hopCount[2] != 5 || hopCount[3] != 2 {
		t.Errorf("hop distribution = %v, want 3/5/2", hopCount)
	}
	if err := CheckHopLimit(routes); err != nil {
		t.Errorf("typical network violates hop limit: %v", err)
	}
}

func TestUplinkRoutesRelayStructure(t *testing.T) {
	// n9 must route via n6 then n2; n10 via n7 then n3.
	n, sources, _ := TypicalNetwork()
	routes, err := n.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	p9 := routes[sources[8]]
	if got := p9.Format(n); got != "n9 -> n6 -> n2 -> G" {
		t.Errorf("path 9 = %q", got)
	}
	p10 := routes[sources[9]]
	if got := p10.Format(n); got != "n10 -> n7 -> n3 -> G" {
		t.Errorf("path 10 = %q", got)
	}
}

func TestPathsSharedByLinkE3(t *testing.T) {
	// Paper Section VI-C: link e3 (n3-G) is shared by paths 3, 7, 8, 10.
	n, sources, _ := TypicalNetwork()
	routes, err := n.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	n3, _ := n.NodeByName("n3")
	gw, _ := n.Gateway()
	e3, ok := n.LinkBetween(n3.ID, gw)
	if !ok {
		t.Fatal("link n3-G missing")
	}
	shared := PathsSharedByLink(routes, e3.ID)
	want := []NodeID{sources[2], sources[6], sources[7], sources[9]} // n3, n7, n8, n10
	if len(shared) != len(want) {
		t.Fatalf("shared = %v, want %v", shared, want)
	}
	for i := range want {
		if shared[i] != want[i] {
			t.Errorf("shared[%d] = %v, want %v", i, shared[i], want[i])
		}
	}
}

func TestUplinkRoutesUnreachable(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddNode("G", Gateway); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode("orphan", FieldDevice); err != nil {
		t.Fatal(err)
	}
	if _, err := n.UplinkRoutes(); err == nil {
		t.Error("unreachable node should error")
	}
}

// TestUplinkRoutesFollowChanges: routes are computed once per state of
// the network. Calls in between share one map, concurrent first calls
// included, and AddNode or AddLink makes the next call route the changed
// network.
func TestUplinkRoutesFollowChanges(t *testing.T) {
	n := NewNetwork()
	g, err := n.AddNode("G", Gateway)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.AddNode("a", FieldDevice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.UplinkRoutes(); err == nil {
		t.Fatal("unreachable node should error")
	}
	if _, err := n.AddLink(a, g); err != nil {
		t.Fatal(err)
	}
	maps := make([]map[NodeID]Path, 4)
	var wg sync.WaitGroup
	for i := range maps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			maps[i], _ = n.UplinkRoutes()
		}(i)
	}
	wg.Wait()
	first, err := n.UplinkRoutes()
	if err != nil || len(first) != 1 || first[a].Hops() != 1 {
		t.Fatalf("routes after AddLink: %v, %v", first, err)
	}
	for i, m := range maps {
		if len(m) != 1 || m[a].Hops() != 1 {
			t.Errorf("concurrent call %d: %v", i, m)
		}
	}
	if again, _ := n.UplinkRoutes(); reflect.ValueOf(again).UnsafePointer() != reflect.ValueOf(first).UnsafePointer() {
		t.Error("a second call on an unchanged network routed it again")
	}
	b, err := n.AddNode("b", FieldDevice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.UplinkRoutes(); err == nil {
		t.Error("routes after AddNode still omit the new, unreachable node")
	}
	if _, err := n.AddLink(b, a); err != nil {
		t.Fatal(err)
	}
	if routes, err := n.UplinkRoutes(); err != nil || routes[b].Hops() != 2 {
		t.Errorf("routes after the second AddLink: %v, %v", routes, err)
	}
}

func TestUplinkRoutesNoGateway(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddNode("a", FieldDevice); err != nil {
		t.Fatal(err)
	}
	if _, err := n.UplinkRoutes(); err == nil {
		t.Error("gatewayless network should error")
	}
}

func TestCheckHopLimit(t *testing.T) {
	// A 5-hop chain violates the guideline.
	n := NewNetwork()
	gw, _ := n.AddNode("G", Gateway)
	prev := gw
	for i := 1; i <= 5; i++ {
		id, _ := n.AddNode(strings.Repeat("x", i), FieldDevice)
		if _, err := n.AddLink(prev, id); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	routes, err := n.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckHopLimit(routes); err == nil {
		t.Error("5-hop route should violate the hop limit")
	}
}

func TestRandomPlantNetworkTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, devices, err := RandomPlantNetwork(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 20 {
		t.Fatalf("got %d devices, want 20", len(devices))
	}
	routes, err := n.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	hops := map[int]int{}
	for _, p := range routes {
		hops[p.Hops()]++
	}
	// 30/50/20 split of 20 nodes: 6 / 10 / 4.
	if hops[1] != 6 || hops[2] != 10 || hops[3] != 4 {
		t.Errorf("tier sizes = %v, want 6/10/4", hops)
	}
	if err := CheckHopLimit(routes); err != nil {
		t.Error(err)
	}
}

func TestRandomPlantNetworkValidation(t *testing.T) {
	if _, _, err := RandomPlantNetwork(2, rand.New(rand.NewSource(1))); err == nil {
		t.Error("too few nodes should error")
	}
	if _, _, err := RandomPlantNetwork(10, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestRandomPlantNetworkSmall(t *testing.T) {
	// Minimum size must still build a routable network.
	n, _, err := RandomPlantNetwork(3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.UplinkRoutes(); err != nil {
		t.Error(err)
	}
}
