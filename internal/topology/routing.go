package topology

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Path is an uplink route: a sequence of node ids from the source to the
// gateway (inclusive), following existing links.
type Path struct {
	nodes []NodeID
	links []LinkID
}

// NewPath validates that consecutive nodes are linked in the network and
// returns the path. A path needs at least two nodes (source and gateway).
func NewPath(n *Network, nodes []NodeID) (Path, error) {
	if len(nodes) < 2 {
		return Path{}, errors.New("topology: path needs at least source and destination")
	}
	links := make([]LinkID, 0, len(nodes)-1)
	seen := map[NodeID]bool{}
	for i, id := range nodes {
		if !n.validNode(id) {
			return Path{}, fmt.Errorf("topology: path node %d not in network", id)
		}
		if seen[id] {
			return Path{}, fmt.Errorf("topology: path revisits node %d", id)
		}
		seen[id] = true
		if i == 0 {
			continue
		}
		l, ok := n.LinkBetween(nodes[i-1], id)
		if !ok {
			return Path{}, fmt.Errorf("topology: no link between %d and %d", nodes[i-1], id)
		}
		links = append(links, l.ID)
	}
	out := Path{nodes: append([]NodeID(nil), nodes...), links: links}
	return out, nil
}

// Nodes returns the node sequence (copy).
func (p Path) Nodes() []NodeID {
	out := make([]NodeID, len(p.nodes))
	copy(out, p.nodes)
	return out
}

// Links returns the traversed link ids in hop order (copy).
func (p Path) Links() []LinkID {
	out := make([]LinkID, len(p.links))
	copy(out, p.links)
	return out
}

// Link returns the link id of hop h, counted from 0 at the source.
func (p Path) Link(h int) LinkID { return p.links[h] }

// Hops returns the number of hops (links) on the path.
func (p Path) Hops() int { return len(p.links) }

// Source returns the first node.
func (p Path) Source() NodeID { return p.nodes[0] }

// UsesLink reports whether the path traverses the given link.
func (p Path) UsesLink(id LinkID) bool {
	for _, l := range p.links {
		if l == id {
			return true
		}
	}
	return false
}

// String renders the path as "n1 -> n2 -> G" using node ids.
func (p Path) String() string {
	parts := make([]string, len(p.nodes))
	for i, id := range p.nodes {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, " -> ")
}

// Format renders the path with node names from the network.
func (p Path) Format(n *Network) string {
	parts := make([]string, len(p.nodes))
	for i, id := range p.nodes {
		node, err := n.Node(id)
		if err != nil {
			parts[i] = fmt.Sprintf("?%d", id)
			continue
		}
		parts[i] = node.Name
	}
	return strings.Join(parts, " -> ")
}

// UplinkRoutes computes the uplink graph routes: for every field device,
// the BFS shortest path to the gateway, breaking ties by the lowest
// neighbor id (the network manager's deterministic choice). It returns the
// paths keyed by source node id. Unreachable nodes produce an error.
//
// The routes are computed once per state of the network, so a schedule
// builder and an analyzer of one network share them: every call until the
// next AddNode or AddLink returns the same map (or error), which callers
// must not modify. Concurrent calls are safe.
func (n *Network) UplinkRoutes() (map[NodeID]Path, error) {
	if r := n.routes.Load(); r != nil {
		return r.paths, r.err
	}
	paths, err := n.uplinkRoutes()
	n.routes.Store(&uplinkRoutes{paths, err})
	return paths, err
}

// uplinkRoutes computes what UplinkRoutes returns.
func (n *Network) uplinkRoutes() (map[NodeID]Path, error) {
	gw, err := n.Gateway()
	if err != nil {
		return nil, err
	}
	// BFS from the gateway over the dense node ids: parent[v] is v's next
	// hop toward the gateway (-1 while unreached), up[v] the link to it and
	// hops[v] its distance.
	nn := len(n.nodes)
	parent := make([]NodeID, nn)
	up := make([]LinkID, nn)
	hops := make([]int, nn)
	for v := range parent {
		parent[v] = -1
	}
	parent[gw] = gw
	queue := make([]NodeID, 1, nn)
	queue[0] = gw
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, x := range n.adjacent[v] { // sorted: lowest id first
			if parent[x.to] >= 0 {
				continue
			}
			parent[x.to], up[x.to], hops[x.to] = v, x.link, hops[v]+1
			queue = append(queue, x.to)
		}
	}
	// Each route follows the tree's edges up to the gateway; all routes
	// share one node and one link array.
	var nLinks, nNodes int
	for _, node := range n.nodes {
		if node.Kind == Gateway {
			continue
		}
		if parent[node.ID] < 0 {
			return nil, fmt.Errorf("topology: node %q cannot reach the gateway", node.Name)
		}
		nLinks += hops[node.ID]
		nNodes += hops[node.ID] + 1
	}
	nodes, links := make([]NodeID, nNodes), make([]LinkID, nLinks)
	routes := make(map[NodeID]Path, nn-1)
	for _, node := range n.nodes {
		if node.Kind == Gateway {
			continue
		}
		h := hops[node.ID]
		p := Path{nodes: nodes[: h+1 : h+1], links: links[:h:h]}
		nodes, links = nodes[h+1:], links[h:]
		v := node.ID
		for i := 0; i < h; i++ {
			p.nodes[i], p.links[i] = v, up[v]
			v = parent[v]
		}
		p.nodes[h] = gw
		routes[node.ID] = p
	}
	return routes, nil
}

// PathsSharedByLink returns the source ids of all routes that traverse the
// link, sorted ascending — e.g. the paper's observation that link e3 (n3-G)
// is shared by paths 3, 7, 8 and 10.
func PathsSharedByLink(routes map[NodeID]Path, id LinkID) []NodeID {
	var out []NodeID
	for src, p := range routes {
		if p.UsesLink(id) {
			out = append(out, src)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedSources returns the route map's source ids sorted ascending — the
// canonical iteration order for anything derived from a routes map, so
// map-order nondeterminism cannot leak into generated schedules or
// scenario keys.
func SortedSources(routes map[NodeID]Path) []NodeID {
	out := make([]NodeID, 0, len(routes))
	for src := range routes {
		out = append(out, src)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxHops is the official guideline's limit on the distance from any node
// to the gateway (paper Section V-C).
const MaxHops = 4

// CheckHopLimit verifies that every route respects the WirelessHART
// guideline of at most MaxHops hops.
func CheckHopLimit(routes map[NodeID]Path) error {
	for src, p := range routes {
		if p.Hops() > MaxHops {
			return fmt.Errorf("topology: route from node %d has %d hops, guideline max is %d",
				src, p.Hops(), MaxHops)
		}
	}
	return nil
}
