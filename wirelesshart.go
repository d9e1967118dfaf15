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
	"sync"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// DefaultMessageBits is the standard WirelessHART message length used to
// convert bit error rates to message failure probabilities (127 bytes).
const DefaultMessageBits = channel.DefaultMessageBits

// Network is a WirelessHART mesh under construction. The zero value is not
// usable; create one with New.
type Network struct {
	topo     *topology.Network
	models   map[topology.LinkID]link.Model
	explicit map[topology.LinkID]bool
	bits     int
	structs  *structCache
}

// New returns an empty network using the default message length.
func New() *Network {
	return &Network{
		topo:     topology.NewNetwork(),
		models:   map[topology.LinkID]link.Model{},
		explicit: map[topology.LinkID]bool{},
		bits:     DefaultMessageBits,
		structs:  &structCache{m: map[string]*pathmodel.Structure{}},
	}
}

// structCache is the Network's persistent path-structure cache. Every
// analyzer built from this Network shares it, so repeated analyses —
// Analyze with different link options, SuggestImprovements, failure-window
// sweeps — rebind link availabilities onto cached state spaces instead of
// re-running the chain construction per call. Structures depend only on
// schedule geometry, never on link quality, so entries stay valid across
// any change of link models or injections.
type structCache struct {
	mu sync.Mutex
	m  map[string]*pathmodel.Structure
}

func (c *structCache) GetStructure(key string) (*pathmodel.Structure, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	return s, ok
}

func (c *structCache) PutStructure(key string, s *pathmodel.Structure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = s
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
	explicit := true
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
		explicit = false
	}
	if err != nil {
		return err
	}
	id, err := n.topo.AddLink(na.ID, nb.ID)
	if err != nil {
		return err
	}
	n.models[id] = m
	n.explicit[id] = explicit
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
// per slot). The default 1 reproduces the paper's single-channel
// schedules; higher values shrink the frame and every delay. Both Analyze
// and Simulate support multi-channel schedules.
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

func defaultOptions() *options {
	return &options{is: 4, fdown: -1, policy: ShortestFirst, extraIdle: 1, channels: 1}
}

// build realizes the analyzer for the current options.
func (n *Network) build(o *options) (*core.Analyzer, schedule.Plan, error) {
	routes, err := n.topo.UplinkRoutes()
	if err != nil {
		return nil, nil, err
	}
	if o.explicit != nil {
		return n.buildExplicit(o, routes)
	}
	var order []topology.NodeID
	if len(o.priority) > 0 {
		for _, name := range o.priority {
			node, ok := n.topo.NodeByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("wirelesshart: unknown node %q in priority", name)
			}
			order = append(order, node.ID)
		}
	} else if o.policy == LongestFirst {
		order = schedule.LongestFirst(routes)
	} else {
		order = schedule.ShortestFirst(routes)
	}
	var sched schedule.Plan
	if o.channels > 1 {
		sched, err = schedule.BuildMultiChannel(routes, order, o.channels, o.extraIdle)
	} else {
		sched, err = schedule.BuildPriority(routes, order, o.extraIdle)
	}
	if err != nil {
		return nil, nil, err
	}
	return n.finishBuild(o, sched, nil)
}

// Spec exports the network together with the given analysis options as a
// fully specified JSON scenario — the canonical form consumed by the
// concurrent evaluation engine (internal/engine) and cmd/whart-server.
// Analyzing the returned spec yields exactly the same results as calling
// Analyze with the same options. DownlinkFrame(0) has no spec
// representation and is rejected.
func (n *Network) Spec(opts ...Option) (*spec.Spec, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	s := &spec.Spec{
		ReportingInterval: o.is,
		TTL:               o.ttl,
		MessageBits:       n.bits,
	}
	switch {
	case o.fdown == 0:
		return nil, errors.New("wirelesshart: a zero downlink frame cannot be expressed as a spec")
	case o.fdown > 0:
		s.Fdown = o.fdown
	}
	for _, node := range n.topo.Nodes() {
		kind := "field-device"
		if node.Kind == topology.Gateway {
			kind = "gateway"
		}
		s.Nodes = append(s.Nodes, spec.Node{Name: node.Name, Kind: kind})
	}
	dead := map[string]bool{}
	for k, v := range o.deadLinks {
		dead[k] = v
	}
	down := map[string][2]int{}
	for k, v := range o.downLinks {
		down[k] = v
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
		if dead[key] {
			sl.Failure = &spec.Failure{Kind: "permanent"}
			delete(dead, key)
		} else if win, ok := down[key]; ok {
			sl.Failure = &spec.Failure{Kind: "window", FromSlot: win[0], ToSlot: win[1]}
			delete(down, key)
		}
		s.Links = append(s.Links, sl)
	}
	for key := range dead {
		return nil, fmt.Errorf("wirelesshart: permanent failure on unknown link %q", key)
	}
	for key := range down {
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

// buildExplicit realizes an ExplicitSlots schedule.
func (n *Network) buildExplicit(o *options, routes map[topology.NodeID]topology.Path) (*core.Analyzer, schedule.Plan, error) {
	sched, err := schedule.New(o.expFup)
	if err != nil {
		return nil, nil, err
	}
	// Sorted source-name order: both the reporting-source list and the
	// first validation error reported must not depend on map order.
	names := make([]string, 0, len(o.explicit))
	for name := range o.explicit {
		names = append(names, name)
	}
	sort.Strings(names)
	var sources []topology.NodeID
	for _, name := range names {
		slots := o.explicit[name]
		node, ok := n.topo.NodeByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("wirelesshart: unknown source %q in explicit schedule", name)
		}
		p, ok := routes[node.ID]
		if !ok {
			return nil, nil, fmt.Errorf("wirelesshart: node %q has no route", name)
		}
		if len(slots) != p.Hops() {
			return nil, nil, fmt.Errorf("wirelesshart: source %q has %d slots for %d hops",
				name, len(slots), p.Hops())
		}
		nodes := p.Nodes()
		for h, slot := range slots {
			if err := sched.SetTransmission(slot, nodes[h], nodes[h+1], node.ID); err != nil {
				return nil, nil, err
			}
		}
		sources = append(sources, node.ID)
	}
	return n.finishBuild(o, sched, sources)
}

// finishBuild attaches link models and failure injections and constructs
// the analyzer. sources restricts reporting devices (nil = all routed).
func (n *Network) finishBuild(o *options, sched schedule.Plan, sources []topology.NodeID) (*core.Analyzer, schedule.Plan, error) {
	opts := []core.Option{core.WithReportingInterval(o.is), core.WithStructureCache(n.structs)}
	if sources != nil {
		opts = append(opts, core.WithSources(sources...))
	}
	if o.fdown >= 0 {
		opts = append(opts, core.WithDownlinkFrame(o.fdown))
	}
	if o.ttl > 0 {
		opts = append(opts, core.WithTTL(o.ttl))
	}
	modelIDs := make([]topology.LinkID, 0, len(n.models))
	for id := range n.models {
		modelIDs = append(modelIDs, id)
	}
	sort.Slice(modelIDs, func(i, j int) bool { return modelIDs[i] < modelIDs[j] })
	for _, id := range modelIDs {
		opts = append(opts, core.WithLinkProcess(id, n.models[id]))
	}
	// Failure injections by link name.
	for _, l := range n.topo.Links() {
		na, err := n.topo.Node(l.A)
		if err != nil {
			return nil, nil, err
		}
		nb, err := n.topo.Node(l.B)
		if err != nil {
			return nil, nil, err
		}
		key := linkKey(na.Name, nb.Name)
		if o.deadLinks[key] {
			opts = append(opts, core.WithLinkAvailability(l.ID, link.PermanentDown()))
			delete(o.deadLinks, key)
			continue
		}
		if win, ok := o.downLinks[key]; ok {
			m := n.models[l.ID]
			av, err := m.DownDuring(win[0], win[1], m.Steady())
			if err != nil {
				return nil, nil, err
			}
			opts = append(opts, core.WithLinkAvailability(l.ID, av))
			delete(o.downLinks, key)
		}
	}
	for key := range o.deadLinks {
		return nil, nil, fmt.Errorf("wirelesshart: permanent failure on unknown link %q", key)
	}
	for key := range o.downLinks {
		return nil, nil, fmt.Errorf("wirelesshart: failure window on unknown link %q", key)
	}
	a, err := core.New(n.topo, sched, opts...)
	if err != nil {
		return nil, nil, err
	}
	return a, sched, nil
}
