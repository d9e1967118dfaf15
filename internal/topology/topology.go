// Package topology models the WirelessHART mesh: field devices, the
// gateway, bidirectional wireless links, and the uplink routing graph that
// the network manager derives from connectivity (paper Sections II and
// VI-A). It includes the paper's typical 10-node plant network (Fig. 12)
// and the joining-node scenario of Section VI-E.
package topology

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within a network.
type NodeID int

// NodeKind distinguishes field devices from the gateway.
type NodeKind int

const (
	// FieldDevice is a sensor/actuator node that sources and relays
	// messages.
	FieldDevice NodeKind = iota + 1
	// Gateway is the network's sink, wired to the controller.
	Gateway
)

// String returns the node kind name.
func (k NodeKind) String() string {
	switch k {
	case FieldDevice:
		return "field-device"
	case Gateway:
		return "gateway"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a network node.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// LinkID identifies a bidirectional link within a network.
type LinkID int

// Link is an undirected wireless link between two nodes.
type Link struct {
	ID   LinkID
	A, B NodeID
}

// Other returns the endpoint opposite to n, and whether n is an endpoint.
func (l Link) Other(n NodeID) (NodeID, bool) {
	switch n {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	default:
		return 0, false
	}
}

// Network is a WirelessHART mesh under construction or analysis.
type Network struct {
	nodes    []Node
	names    map[string]NodeID
	links    []Link
	linkSet  map[[2]NodeID]LinkID
	adjacent [][]arc // by node id, sorted by neighbor id
	gateway  NodeID
	hasGW    bool
}

// arc is one direction of a link: the neighbor it reaches and the link.
type arc struct {
	to   NodeID
	link LinkID
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		names:   map[string]NodeID{},
		linkSet: map[[2]NodeID]LinkID{},
	}
}

// AddNode adds a node with a unique name and returns its id. At most one
// gateway is allowed.
func (n *Network) AddNode(name string, kind NodeKind) (NodeID, error) {
	if name == "" {
		return 0, errors.New("topology: empty node name")
	}
	if _, ok := n.names[name]; ok {
		return 0, fmt.Errorf("topology: duplicate node %q", name)
	}
	if kind != FieldDevice && kind != Gateway {
		return 0, fmt.Errorf("topology: unknown node kind %v", kind)
	}
	if kind == Gateway && n.hasGW {
		return 0, errors.New("topology: network already has a gateway")
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, Name: name, Kind: kind})
	n.adjacent = append(n.adjacent, nil)
	n.names[name] = id
	if kind == Gateway {
		n.gateway = id
		n.hasGW = true
	}
	return id, nil
}

// AddLink adds an undirected link between two distinct existing nodes and
// returns its id. Duplicate links (in either orientation) are rejected.
func (n *Network) AddLink(a, b NodeID) (LinkID, error) {
	if !n.validNode(a) || !n.validNode(b) {
		return 0, fmt.Errorf("topology: link endpoints %d-%d not in network", a, b)
	}
	if a == b {
		return 0, fmt.Errorf("topology: self-loop on node %d", a)
	}
	key := linkKey(a, b)
	if _, ok := n.linkSet[key]; ok {
		return 0, fmt.Errorf("topology: duplicate link %s-%s", n.nodes[a].Name, n.nodes[b].Name)
	}
	id := LinkID(len(n.links))
	n.links = append(n.links, Link{ID: id, A: a, B: b})
	n.linkSet[key] = id
	n.addArc(a, arc{to: b, link: id})
	n.addArc(b, arc{to: a, link: id})
	return id, nil
}

// addArc inserts x into from's adjacency, keeping it sorted by neighbor.
func (n *Network) addArc(from NodeID, x arc) {
	arcs := n.adjacent[from]
	i := sort.Search(len(arcs), func(i int) bool { return arcs[i].to > x.to })
	n.adjacent[from] = slices.Insert(arcs, i, x)
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

func (n *Network) validNode(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) (Node, error) {
	if !n.validNode(id) {
		return Node{}, fmt.Errorf("topology: unknown node %d", id)
	}
	return n.nodes[id], nil
}

// NodeByName looks a node up by name.
func (n *Network) NodeByName(name string) (Node, bool) {
	id, ok := n.names[name]
	if !ok {
		return Node{}, false
	}
	return n.nodes[id], true
}

// Nodes returns all nodes in id order.
func (n *Network) Nodes() []Node {
	out := make([]Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// Links returns all links in id order.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	copy(out, n.links)
	return out
}

// FieldDevices returns the ids of all field-device nodes in append (id)
// order — the deterministic source iteration the topology generator and
// fleet aggregator key their output on.
func (n *Network) FieldDevices() []NodeID {
	var out []NodeID
	for _, node := range n.nodes {
		if node.Kind == FieldDevice {
			out = append(out, node.ID)
		}
	}
	return out
}

// LinkBetween returns the link joining a and b, if any.
func (n *Network) LinkBetween(a, b NodeID) (Link, bool) {
	id, ok := n.linkSet[linkKey(a, b)]
	if !ok {
		return Link{}, false
	}
	return n.links[id], true
}

// Gateway returns the gateway node id.
func (n *Network) Gateway() (NodeID, error) {
	if !n.hasGW {
		return 0, errors.New("topology: network has no gateway")
	}
	return n.gateway, nil
}

// Neighbors returns the neighbor ids of a node, sorted ascending.
func (n *Network) Neighbors(id NodeID) []NodeID {
	if !n.validNode(id) {
		return []NodeID{}
	}
	out := make([]NodeID, len(n.adjacent[id]))
	for i, x := range n.adjacent[id] {
		out[i] = x.to
	}
	return out
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the link count.
func (n *Network) NumLinks() int { return len(n.links) }

// WriteDOT renders the connectivity graph in Graphviz DOT format, with the
// gateway drawn as a double circle — the paper's Fig. 12 style.
func (n *Network) WriteDOT(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", title)
	b.WriteString("  layout=neato;\n")
	for _, node := range n.nodes {
		shape := "circle"
		if node.Kind == Gateway {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", node.ID, node.Name, shape)
	}
	for _, l := range n.links {
		fmt.Fprintf(&b, "  n%d -- n%d;\n", l.A, l.B)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
