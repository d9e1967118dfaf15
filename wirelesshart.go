// Package wirelesshart models and evaluates WirelessHART mesh networks,
// reproducing "WirelessHART Modeling and Performance Evaluation" (Remke &
// Wu, DSN 2013). It builds a hierarchical discrete-time Markov chain per
// uplink path — a two-state link model parameterized by the physical layer
// (OQPSK BER over AWGN) under a TDMA communication schedule — and derives
// reachability, delay distributions and utilization, predicts routing
// choices by path composition, and cross-validates everything against a
// discrete-event simulator.
//
// Quick start:
//
//	net := wirelesshart.New()
//	_ = net.Gateway("G")
//	_ = net.Device("n1")
//	_ = net.Link("n1", "G", wirelesshart.BER(1e-4))
//	report, _ := net.Analyze(wirelesshart.ReportingInterval(4))
//	fmt.Println(report.Paths[0].Reachability)
package wirelesshart

import (
	"errors"
	"fmt"
	"sort"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// DefaultMessageBits is the standard WirelessHART message length used to
// convert bit error rates to message failure probabilities (127 bytes).
const DefaultMessageBits = channel.DefaultMessageBits

// Network is a WirelessHART mesh under construction. The zero value is not
// usable; create one with New.
type Network struct {
	topo   *topology.Network
	models map[topology.LinkID]link.Model
	bits   int
}

// New returns an empty network using the default message length.
func New() *Network {
	return &Network{
		topo:   topology.NewNetwork(),
		models: map[topology.LinkID]link.Model{},
		bits:   DefaultMessageBits,
	}
}

// Typical returns the paper's typical plant network (Fig. 12): ten field
// devices, 30% one hop from the gateway, 50% two hops, 20% three hops, all
// links at the paper's reference quality (BER 2e-4).
func Typical() (*Network, error) {
	n := New()
	if err := n.Gateway("G"); err != nil {
		return nil, err
	}
	for i := 1; i <= 10; i++ {
		if err := n.Device(fmt.Sprintf("n%d", i)); err != nil {
			return nil, err
		}
	}
	edges := [][2]string{
		{"n1", "G"}, {"n2", "G"}, {"n3", "G"},
		{"n4", "n1"}, {"n5", "n1"}, {"n6", "n2"},
		{"n7", "n3"}, {"n8", "n3"},
		{"n9", "n6"}, {"n10", "n7"},
	}
	for _, e := range edges {
		if err := n.Link(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Gateway adds the gateway node.
func (n *Network) Gateway(name string) error {
	_, err := n.topo.AddNode(name, topology.Gateway)
	return err
}

// Device adds a field device.
func (n *Network) Device(name string) error {
	_, err := n.topo.AddNode(name, topology.FieldDevice)
	return err
}

// LinkOption configures a link's physical parameters.
type LinkOption func(*linkSettings) error

type linkSettings struct {
	ber, ebN0, avail, pfl *float64
	prc                   float64
}

// BER sets the link's bit error rate; the failure probability follows from
// the message length (paper Eq. 2).
func BER(x float64) LinkOption {
	return func(s *linkSettings) error { s.ber = &x; return nil }
}

// EbN0 sets the link's linear per-bit SNR; the BER follows from the OQPSK
// AWGN curve (paper Eq. 1).
func EbN0(x float64) LinkOption {
	return func(s *linkSettings) error { s.ebN0 = &x; return nil }
}

// Availability sets the link's stationary availability pi(up) directly.
func Availability(x float64) LinkOption {
	return func(s *linkSettings) error { s.avail = &x; return nil }
}

// FailureProb sets the per-slot message failure probability directly.
func FailureProb(x float64) LinkOption {
	return func(s *linkSettings) error { s.pfl = &x; return nil }
}

// Recovery overrides the per-slot recovery probability (default 0.9, the
// paper's channel-hopping value).
func Recovery(x float64) LinkOption {
	return func(s *linkSettings) error {
		if x <= 0 || x > 1 {
			return fmt.Errorf("wirelesshart: recovery probability %v out of (0,1]", x)
		}
		s.prc = x
		return nil
	}
}

// Link adds a bidirectional link between two named nodes. Without physical
// options the link uses the paper's reference quality (BER 2e-4,
// pi(up) = 0.8304).
func (n *Network) Link(a, b string, opts ...LinkOption) error {
	na, ok := n.topo.NodeByName(a)
	if !ok {
		return fmt.Errorf("wirelesshart: unknown node %q", a)
	}
	nb, ok := n.topo.NodeByName(b)
	if !ok {
		return fmt.Errorf("wirelesshart: unknown node %q", b)
	}
	s := linkSettings{prc: link.DefaultRecoveryProb}
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return err
		}
	}
	var m link.Model
	var err error
	switch {
	case s.pfl != nil:
		m, err = link.New(*s.pfl, s.prc)
	case s.ber != nil:
		m, err = link.FromBER(*s.ber, n.bits, s.prc)
	case s.ebN0 != nil:
		m, err = link.FromEbN0(*s.ebN0, n.bits, s.prc)
	case s.avail != nil:
		m, err = link.FromAvailability(*s.avail, s.prc)
	default:
		m, err = link.FromBER(2e-4, n.bits, s.prc)
	}
	if err != nil {
		return err
	}
	id, err := n.topo.AddLink(na.ID, nb.ID)
	if err != nil {
		return err
	}
	n.models[id] = m
	return nil
}

// Routes returns each field device's uplink route as node-name sequences,
// keyed by source name.
func (n *Network) Routes() (map[string][]string, error) {
	routes, err := n.topo.UplinkRoutes()
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for src, p := range routes {
		srcNode, err := n.topo.Node(src)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, id := range p.Nodes() {
			node, err := n.topo.Node(id)
			if err != nil {
				return nil, err
			}
			names = append(names, node.Name)
		}
		out[srcNode.Name] = names
	}
	return out, nil
}

// SchedulePolicy selects how the communication schedule is generated.
type SchedulePolicy int

const (
	// ShortestFirst allocates slots to short paths first — the paper's
	// eta_a.
	ShortestFirst SchedulePolicy = iota + 1
	// LongestFirst allocates slots to long paths first — the paper's
	// eta_b policy.
	LongestFirst
)

// options collects analysis settings.
type options struct {
	is        int
	fdown     int
	ttl       int
	policy    SchedulePolicy
	priority  []string
	extraIdle int
	channels  int
	explicit  map[string][]int
	expFup    int
	downLinks map[string][2]int // "a|b" -> blocked window
	deadLinks map[string]bool
}

// Option configures Analyze, Simulate and PredictAttachment.
type Option func(*options) error

// ReportingInterval sets Is in super-frames (default 4).
func ReportingInterval(is int) Option {
	return func(o *options) error {
		if is < 1 {
			return fmt.Errorf("wirelesshart: reporting interval %d must be positive", is)
		}
		o.is = is
		return nil
	}
}

// DownlinkFrame sets Fdown in slots for delay conversion (default: equal
// to the uplink frame, the paper's symmetric setup).
func DownlinkFrame(fdown int) Option {
	return func(o *options) error {
		if fdown < 0 {
			return fmt.Errorf("wirelesshart: downlink frame %d must be non-negative", fdown)
		}
		o.fdown = fdown
		return nil
	}
}

// TTL overrides the message time-to-live in uplink slots.
func TTL(ttl int) Option {
	return func(o *options) error {
		if ttl < 0 {
			return fmt.Errorf("wirelesshart: TTL %d must be non-negative", ttl)
		}
		o.ttl = ttl
		return nil
	}
}

// Policy selects the schedule generation policy (default ShortestFirst).
func Policy(p SchedulePolicy) Option {
	return func(o *options) error {
		if p != ShortestFirst && p != LongestFirst {
			return fmt.Errorf("wirelesshart: unknown schedule policy %d", p)
		}
		o.policy = p
		return nil
	}
}

// Priority fixes the exact schedule order by source names, overriding the
// policy.
func Priority(sources ...string) Option {
	return func(o *options) error {
		if len(sources) == 0 {
			return errors.New("wirelesshart: empty priority order")
		}
		o.priority = sources
		return nil
	}
}

// ExplicitSlots bypasses the schedule builders and assigns exact 1-based
// frame slots per source (one slot per hop, in hop order) within a frame
// of fup slots — e.g. the paper's Section V-A schedule places a 3-hop
// path's hops in slots 3, 6, 7 of a 7-slot frame. Sources without an entry
// act as pure relays.
func ExplicitSlots(fup int, slots map[string][]int) Option {
	return func(o *options) error {
		if fup < 1 {
			return fmt.Errorf("wirelesshart: frame size %d must be positive", fup)
		}
		if len(slots) == 0 {
			return errors.New("wirelesshart: explicit schedule needs at least one source")
		}
		o.expFup = fup
		o.explicit = slots
		return nil
	}
}

// Channels sets the number of parallel frequency channels the schedule may
// use per slot (TDMA+FDMA; the standard allows one transaction per channel
// per slot). It applies to generated schedules only: combined with
// ExplicitSlots it is an error. The default 1 reproduces the paper's
// single-channel schedules; higher values shrink the frame and every
// delay. Both Analyze and Simulate support multi-channel schedules.
func Channels(n int) Option {
	return func(o *options) error {
		if n < 1 || n > 16 {
			return fmt.Errorf("wirelesshart: channels %d out of [1,16]", n)
		}
		o.channels = n
		return nil
	}
}

// ExtraIdleSlots pads the generated schedule with idle slots (the paper's
// typical network pads 19 transmissions to Fup = 20). Default 1.
func ExtraIdleSlots(k int) Option {
	return func(o *options) error {
		if k < 0 {
			return fmt.Errorf("wirelesshart: idle padding %d must be non-negative", k)
		}
		o.extraIdle = k
		return nil
	}
}

// LinkDownDuring injects a random-duration failure: the named link is
// forced DOWN during the half-open uplink-slot window [from, to) of the
// reporting interval (paper Section VI-C).
func LinkDownDuring(a, b string, from, to int) Option {
	return func(o *options) error {
		if from < 0 || to < from {
			return fmt.Errorf("wirelesshart: invalid failure window [%d,%d)", from, to)
		}
		if o.downLinks == nil {
			o.downLinks = map[string][2]int{}
		}
		o.downLinks[linkKey(a, b)] = [2]int{from, to}
		return nil
	}
}

// LinkPermanentlyDown marks the named link permanently failed.
func LinkPermanentlyDown(a, b string) Option {
	return func(o *options) error {
		if o.deadLinks == nil {
			o.deadLinks = map[string]bool{}
		}
		o.deadLinks[linkKey(a, b)] = true
		return nil
	}
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// applyOptions returns the analysis settings the options select.
func applyOptions(opts []Option) (*options, error) {
	o := &options{is: 4, fdown: -1, policy: ShortestFirst, extraIdle: 1, channels: 1}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// build realizes the options through the exported spec — the same
// spec.BuildWith path the engine, server and CLIs take. Each build's
// analyzer keeps its own structure map. DownlinkFrame(0) has no spec
// field, so it reaches the analyzer as an extra option.
func (n *Network) build(opts []Option) (*spec.Built, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	s, err := n.spec(o)
	if err != nil {
		return nil, err
	}
	if o.fdown == 0 {
		return s.BuildWith(core.WithDownlinkFrame(0))
	}
	return s.Build()
}

// Spec exports the network together with the given analysis options as a
// fully specified JSON scenario — the canonical form consumed by the
// concurrent evaluation engine (internal/engine) and cmd/whart-server.
// Analyze realizes the same spec, so analyzing the returned spec yields
// exactly the same results as calling Analyze with the same options.
// DownlinkFrame(0) has no spec representation and is rejected.
func (n *Network) Spec(opts ...Option) (*spec.Spec, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.fdown == 0 {
		return nil, errors.New("wirelesshart: a zero downlink frame cannot be expressed as a spec")
	}
	return n.spec(o)
}

// spec exports the network under o, leaving a zero downlink frame out. It
// consumes o's failure maps.
func (n *Network) spec(o *options) (*spec.Spec, error) {
	s := &spec.Spec{
		ReportingInterval: o.is,
		TTL:               o.ttl,
		MessageBits:       n.bits,
	}
	if o.fdown > 0 {
		s.Fdown = o.fdown
	}
	for _, node := range n.topo.Nodes() {
		kind := "field-device"
		if node.Kind == topology.Gateway {
			kind = "gateway"
		}
		s.Nodes = append(s.Nodes, spec.Node{Name: node.Name, Kind: kind})
	}
	for _, l := range n.topo.Links() {
		na, err := n.topo.Node(l.A)
		if err != nil {
			return nil, err
		}
		nb, err := n.topo.Node(l.B)
		if err != nil {
			return nil, err
		}
		m := n.models[l.ID]
		pfl, prc := m.FailureProb(), m.RecoveryProb()
		sl := spec.Link{A: na.Name, B: nb.Name, PFl: &pfl, PRc: &prc}
		key := linkKey(na.Name, nb.Name)
		if o.deadLinks[key] {
			sl.Failure = &spec.Failure{Kind: "permanent"}
			delete(o.deadLinks, key)
		} else if win, ok := o.downLinks[key]; ok {
			sl.Failure = &spec.Failure{Kind: "window", FromSlot: win[0], ToSlot: win[1]}
			delete(o.downLinks, key)
		}
		s.Links = append(s.Links, sl)
	}
	for key := range o.deadLinks {
		return nil, fmt.Errorf("wirelesshart: permanent failure on unknown link %q", key)
	}
	for key := range o.downLinks {
		return nil, fmt.Errorf("wirelesshart: failure window on unknown link %q", key)
	}
	switch {
	case o.explicit != nil:
		routes, err := n.topo.UplinkRoutes()
		if err != nil {
			return nil, err
		}
		s.Schedule.Fup = o.expFup
		sources := make([]string, 0, len(o.explicit))
		for name := range o.explicit {
			sources = append(sources, name)
		}
		sort.Strings(sources)
		for _, name := range sources {
			node, ok := n.topo.NodeByName(name)
			if !ok {
				return nil, fmt.Errorf("wirelesshart: unknown source %q in explicit schedule", name)
			}
			p, ok := routes[node.ID]
			if !ok {
				return nil, fmt.Errorf("wirelesshart: node %q has no route", name)
			}
			slots := o.explicit[name]
			if len(slots) != p.Hops() {
				return nil, fmt.Errorf("wirelesshart: source %q has %d slots for %d hops",
					name, len(slots), p.Hops())
			}
			nodes := p.Nodes()
			for h, slot := range slots {
				from, err := n.topo.Node(nodes[h])
				if err != nil {
					return nil, err
				}
				to, err := n.topo.Node(nodes[h+1])
				if err != nil {
					return nil, err
				}
				s.Schedule.Slots = append(s.Schedule.Slots, spec.Transmission{
					Slot: slot, From: from.Name, To: to.Name, Source: name,
				})
			}
		}
		s.Sources = sources
	case len(o.priority) > 0:
		s.Schedule.Priority = append([]string(nil), o.priority...)
		s.Schedule.ExtraIdle = o.extraIdle
	case o.policy == LongestFirst:
		s.Schedule.Policy = "longest-first"
		s.Schedule.ExtraIdle = o.extraIdle
	default:
		s.Schedule.Policy = "shortest-first"
		s.Schedule.ExtraIdle = o.extraIdle
	}
	if o.channels > 1 {
		s.Schedule.Channels = o.channels
	}
	return s, nil
}
