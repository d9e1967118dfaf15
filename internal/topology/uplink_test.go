package topology_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// refUplinkRoutes is the map-based BFS that UplinkRoutes ran before it
// moved onto dense slices, built on the public API alone (and sorting the
// neighbors itself, as Neighbors once did): the reference the dense
// version must reproduce route for route.
func refUplinkRoutes(n *topology.Network) (map[topology.NodeID]topology.Path, error) {
	gw, err := n.Gateway()
	if err != nil {
		return nil, err
	}
	parent := map[topology.NodeID]topology.NodeID{gw: gw}
	queue := []topology.NodeID{gw}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nbrs := n.Neighbors(v)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, w := range nbrs {
			if _, ok := parent[w]; ok {
				continue
			}
			parent[w] = v
			queue = append(queue, w)
		}
	}
	routes := map[topology.NodeID]topology.Path{}
	for _, node := range n.Nodes() {
		if node.Kind == topology.Gateway {
			continue
		}
		if _, ok := parent[node.ID]; !ok {
			return nil, fmt.Errorf("topology: node %q cannot reach the gateway", node.Name)
		}
		var seq []topology.NodeID
		for v := node.ID; ; v = parent[v] {
			seq = append(seq, v)
			if v == gw {
				break
			}
		}
		p, err := topology.NewPath(n, seq)
		if err != nil {
			return nil, err
		}
		routes[node.ID] = p
	}
	return routes, nil
}

// meshed rebuilds n with its links added in a random order plus extra
// random links, so equal-length routes compete for the lowest-neighbor
// tie-break and adjacency lists are filled out of order.
func meshed(t *testing.T, n *topology.Network, rng *rand.Rand) *topology.Network {
	t.Helper()
	out := topology.NewNetwork()
	nodes := n.Nodes()
	for _, node := range nodes {
		if _, err := out.AddNode(node.Name, node.Kind); err != nil {
			t.Fatal(err)
		}
	}
	links := n.Links()
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links {
		if _, err := out.AddLink(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < len(nodes)/2; k++ {
		a, b := topology.NodeID(rng.Intn(len(nodes))), topology.NodeID(rng.Intn(len(nodes)))
		if _, ok := out.LinkBetween(a, b); a != b && !ok {
			if _, err := out.AddLink(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func checkRoutes(t *testing.T, name string, n *topology.Network) {
	t.Helper()
	want, wantErr := refUplinkRoutes(n)
	got, err := n.UplinkRoutes()
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, want %v", name, err, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d routes, want %d", name, len(got), len(want))
	}
	for src, w := range want {
		g, ok := got[src]
		if !ok || !reflect.DeepEqual(g.Nodes(), w.Nodes()) || !reflect.DeepEqual(g.Links(), w.Links()) {
			t.Errorf("%s: route from %d = %v over %v, want %v over %v", name, src, g, g.Links(), w, w.Links())
		}
	}
}

// TestUplinkRoutesMatchReference compares UplinkRoutes with the reference
// BFS on the typical network, 200 generated networks, meshed and shuffled
// variants of each, and networks with an unreachable node.
func TestUplinkRoutesMatchReference(t *testing.T) {
	typical, err := spec.TypicalSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	nets := []*topology.Network{typical.Net}
	for i := 0; i < 200; i++ {
		g, err := gen.Generate(1, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, g.Net)
	}
	rng := rand.New(rand.NewSource(7))
	for i, n := range nets {
		checkRoutes(t, fmt.Sprintf("network %d", i), n)
		checkRoutes(t, fmt.Sprintf("meshed network %d", i), meshed(t, n, rng))
	}

	cut := meshed(t, typical.Net, rng)
	if _, err := cut.AddNode("island", topology.FieldDevice); err != nil {
		t.Fatal(err)
	}
	checkRoutes(t, "unreachable node", cut)
	if _, err := topology.NewNetwork().UplinkRoutes(); err == nil {
		t.Error("network without a gateway routed")
	}
}
