// Package spec defines the JSON network specification consumed by the
// command-line tools: nodes, links with physical-layer parameters, the
// communication schedule (explicit or policy-generated), and analysis
// settings. It is the on-disk counterpart of the paper's "fully specified
// network" from which the tool derives the underlying model automatically.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/topology"
)

// Node declares a network node.
type Node struct {
	// Name is the unique node name ("G", "n1", ...).
	Name string `json:"name"`
	// Kind is "gateway" or "field-device" (default).
	Kind string `json:"kind,omitempty"`
}

// Link declares a bidirectional link with its physical parameters. The
// failure probability is derived from the first field set, in priority
// order: PFl, BER, EbN0, Availability; otherwise the network default
// applies.
type Link struct {
	A string `json:"a"`
	B string `json:"b"`
	// PFl is the per-slot message failure probability.
	PFl *float64 `json:"pfl,omitempty"`
	// BER is the bit error rate (with MessageBits giving p_fl).
	BER *float64 `json:"ber,omitempty"`
	// EbN0 is the linear per-bit SNR (OQPSK BER curve).
	EbN0 *float64 `json:"ebN0,omitempty"`
	// Availability is the stationary pi(up).
	Availability *float64 `json:"availability,omitempty"`
	// PRc overrides the recovery probability (default 0.9).
	PRc *float64 `json:"prc,omitempty"`
	// Fading declares a k-state Markov fading-channel model for the link.
	// It is exclusive with the scalar physical fields (PFl, BER, EbN0,
	// Availability, PRc), which all parameterize the two-state model the
	// fading block replaces.
	Fading *Fading `json:"fading,omitempty"`
	// Failure injects a link failure for analysis (paper Section VI-C).
	Failure *Failure `json:"failure,omitempty"`
}

// Fading declares a k-state Markov fading-channel link model: a slot
// transition matrix over k channel states and a per-state packet success
// probability. State order is arbitrary but shared between the two fields.
type Fading struct {
	// Transitions is the row-stochastic k×k slot transition matrix.
	Transitions [][]float64 `json:"transitions"`
	// Success holds the k per-state packet success probabilities.
	Success []float64 `json:"success"`
}

// Failure describes an injected link failure.
type Failure struct {
	// Kind is "permanent" or "window".
	Kind string `json:"kind"`
	// FromSlot and ToSlot bound a "window" failure: the link is DOWN
	// during uplink slots [FromSlot, ToSlot) of each reporting interval.
	FromSlot int `json:"fromSlot,omitempty"`
	ToSlot   int `json:"toSlot,omitempty"`
}

// ForcedWindow returns the half-open uplink-slot window [from, to) of
// each reporting interval during which the failure holds the link DOWN —
// every slot for a permanent failure. A simulator forces the link down
// there (des.ForcedWindowProcess).
func (f Failure) ForcedWindow() (from, to int) {
	if f.Kind == "permanent" {
		return 0, 1 << 30
	}
	return f.FromSlot, f.ToSlot
}

// Transmission is one explicit schedule entry.
type Transmission struct {
	Slot   int    `json:"slot"`
	From   string `json:"from"`
	To     string `json:"to"`
	Source string `json:"source"`
}

// Schedule declares the communication schedule, either explicitly (Fup +
// Slots) or via a builder policy ("shortest-first" or "longest-first") with
// optional idle padding.
type Schedule struct {
	Fup       int            `json:"fup,omitempty"`
	Slots     []Transmission `json:"slots,omitempty"`
	Policy    string         `json:"policy,omitempty"`
	ExtraIdle int            `json:"extraIdle,omitempty"`
	// Priority fixes the exact allocation order by source name,
	// overriding Policy (e.g. the paper's eta_b order).
	Priority []string `json:"priority,omitempty"`
	// Channels enables multi-channel (TDMA+FDMA) scheduling for
	// policy-generated schedules (default 1).
	Channels int `json:"channels,omitempty"`
}

// Spec is a fully specified network analysis input.
type Spec struct {
	Nodes             []Node   `json:"nodes"`
	Links             []Link   `json:"links"`
	Schedule          Schedule `json:"schedule"`
	ReportingInterval int      `json:"reportingInterval,omitempty"`
	TTL               int      `json:"ttl,omitempty"`
	Fdown             int      `json:"fdown,omitempty"`
	// MessageBits is the message length for BER-derived failure
	// probabilities (default 1016, the 127-byte payload).
	MessageBits int `json:"messageBits,omitempty"`
	// DefaultBER parameterizes links without explicit physical fields
	// (default 2e-4, the paper's pi(up) = 0.8304).
	DefaultBER *float64 `json:"defaultBer,omitempty"`
	// Sources optionally restricts which field devices report; the rest
	// act as pure relays. Default: every field device.
	Sources []string `json:"sources,omitempty"`
}

// Parse decodes a spec from JSON, rejecting unknown fields and trailing
// data.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	if err := DecodeStrict(r, &s); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	return &s, nil
}

// DecodeStrict decodes exactly one JSON value from r into v: unknown
// fields are an error, and so is anything but whitespace after the value.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
		return err
	}
	return nil
}

// LoadFile reads a spec from a JSON file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Write encodes the spec as indented JSON.
func (s *Spec) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Built is the realized network ready for analysis. The analyzer owns
// the resolved per-link processes (Analyzer.LinkProcess) and the reporting
// sources (Analyzer.Sources).
type Built struct {
	Net      *topology.Network
	Schedule *schedule.Schedule
	Analyzer *core.Analyzer
	// Failures maps link ids to their declared failure injections.
	Failures map[topology.LinkID]Failure
}

// Build validates the spec and constructs the network, schedule and
// analyzer.
func (s *Spec) Build() (*Built, error) {
	return s.BuildWith()
}

// BuildWith is Build with extra analyzer options appended — the hook the
// evaluation engine uses to inject its structure cache
// (core.WithStructureCache), which lets scenarios sharing a schedule
// geometry share one path structure and bind only their link values,
// and its tracer. An extra cannot replace a declared link's process with
// a uniform one: every declared link gets its own process from the spec,
// and a per-link process takes precedence over core.WithUniformLinkProcess.
// Set the spec's link fields or DefaultBER instead.
func (s *Spec) BuildWith(extra ...core.Option) (*Built, error) {
	if len(s.Nodes) == 0 {
		return nil, errors.New("spec: no nodes")
	}
	bits := s.Bits()
	net := topology.NewNetwork()
	ids := map[string]topology.NodeID{}
	for _, n := range s.Nodes {
		kind := topology.FieldDevice
		switch n.Kind {
		case "", "field-device":
		case "gateway":
			kind = topology.Gateway
		default:
			return nil, fmt.Errorf("spec: node %q has unknown kind %q", n.Name, n.Kind)
		}
		id, err := net.AddNode(n.Name, kind)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		ids[n.Name] = id
	}

	linkProcs := map[topology.LinkID]link.Process{}
	injections := map[topology.LinkID]link.Availability{}
	failures := map[topology.LinkID]Failure{}
	for i, l := range s.Links {
		a, okA := ids[l.A]
		b, okB := ids[l.B]
		if !okA || !okB {
			return nil, fmt.Errorf("spec: link %d references unknown node (%q-%q)", i, l.A, l.B)
		}
		lid, err := net.AddLink(a, b)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		p, err := s.linkProcess(l, bits)
		if err != nil {
			return nil, fmt.Errorf("spec: link %q-%q: %w", l.A, l.B, err)
		}
		linkProcs[lid] = p
		if l.Failure != nil {
			av, err := failureAvailability(p, l.Failure)
			if err != nil {
				return nil, fmt.Errorf("spec: link %q-%q: %w", l.A, l.B, err)
			}
			injections[lid] = av
			failures[lid] = *l.Failure
		}
	}

	sched, err := s.buildSchedule(net, ids)
	if err != nil {
		return nil, err
	}

	opts := []core.Option{}
	if len(s.Sources) > 0 {
		var srcIDs []topology.NodeID
		for _, name := range s.Sources {
			id, ok := ids[name]
			if !ok {
				return nil, fmt.Errorf("spec: unknown reporting source %q", name)
			}
			srcIDs = append(srcIDs, id)
		}
		opts = append(opts, core.WithSources(srcIDs...))
	}
	if s.ReportingInterval != 0 {
		opts = append(opts, core.WithReportingInterval(s.ReportingInterval))
	}
	if s.TTL != 0 {
		opts = append(opts, core.WithTTL(s.TTL))
	}
	if s.Fdown != 0 {
		opts = append(opts, core.WithDownlinkFrame(s.Fdown))
	}
	// Options in sorted link order: the option list feeds the analyzer
	// construction and cache keys, so map order would differ between runs.
	procIDs := make([]topology.LinkID, 0, len(linkProcs))
	for lid := range linkProcs {
		procIDs = append(procIDs, lid)
	}
	sort.Slice(procIDs, func(i, j int) bool { return procIDs[i] < procIDs[j] })
	for _, lid := range procIDs {
		opts = append(opts, core.WithLinkProcess(lid, linkProcs[lid]))
	}
	injIDs := make([]topology.LinkID, 0, len(injections))
	for lid := range injections {
		injIDs = append(injIDs, lid)
	}
	sort.Slice(injIDs, func(i, j int) bool { return injIDs[i] < injIDs[j] })
	for _, lid := range injIDs {
		opts = append(opts, core.WithLinkAvailability(lid, injections[lid]))
	}
	opts = append(opts, extra...)
	an, err := core.New(net, sched, opts...)
	if err != nil {
		return nil, err
	}
	return &Built{Net: net, Schedule: sched, Analyzer: an, Failures: failures}, nil
}

// Bits returns the effective message length in bits (default 1016, the
// 127-byte payload).
func (s *Spec) Bits() int {
	if s.MessageBits == 0 {
		return channel.DefaultMessageBits
	}
	return s.MessageBits
}

// ResolveLinkProcess returns the effective link process of one declared
// link — the same resolution Build applies: the k-state fading model when
// a fading block is present, the scalar-field two-state model otherwise.
// The evaluation engine hashes its canonical encoding into scenario keys.
func (s *Spec) ResolveLinkProcess(l Link) (link.Process, error) {
	return s.linkProcess(l, s.Bits())
}

// failureAvailability injects a declared failure into a link's per-slot
// availability. A window failure on a two-state link relaxes back through
// the model's transient curve (paper Section VI-C); on a fading link the
// paper-compatible no-relaxation Blocked semantics apply — the chain
// resumes at its stationary marginal after the window.
func failureAvailability(p link.Process, f *Failure) (link.Availability, error) {
	switch f.Kind {
	case "permanent":
		return link.PermanentDown(), nil
	case "window":
		if m, ok := p.(link.Model); ok {
			return m.DownDuring(f.FromSlot, f.ToSlot, m.Steady())
		}
		return link.Blocked(p.Steady(), f.FromSlot, f.ToSlot)
	default:
		return nil, fmt.Errorf("unknown failure kind %q", f.Kind)
	}
}

// linkProcess resolves one declared link to its effective process: a
// fading block (exclusive with every scalar physical field) yields a
// k-state model, anything else the two-state model of linkModel.
func (s *Spec) linkProcess(l Link, bits int) (link.Process, error) {
	if l.Fading == nil {
		return s.linkModel(l, bits)
	}
	var conflict string
	switch {
	case l.PFl != nil:
		conflict = "pfl"
	case l.BER != nil:
		conflict = "ber"
	case l.EbN0 != nil:
		conflict = "ebN0"
	case l.Availability != nil:
		conflict = "availability"
	case l.PRc != nil:
		conflict = "prc"
	}
	if conflict != "" {
		return nil, fmt.Errorf("fading block conflicts with scalar field %q", conflict)
	}
	p, err := link.NewKState(l.Fading.Transitions, l.Fading.Success)
	if err != nil {
		return nil, fmt.Errorf("fading block: %w", err)
	}
	return p, nil
}

func (s *Spec) linkModel(l Link, bits int) (link.Model, error) {
	prc := link.DefaultRecoveryProb
	if l.PRc != nil {
		prc = *l.PRc
	}
	switch {
	case l.PFl != nil:
		return link.New(*l.PFl, prc)
	case l.BER != nil:
		return link.FromBER(*l.BER, bits, prc)
	case l.EbN0 != nil:
		return link.FromEbN0(*l.EbN0, bits, prc)
	case l.Availability != nil:
		return link.FromAvailability(*l.Availability, prc)
	default:
		// Default physical quality, but an explicit PRc still applies.
		ber := channel.DefaultBER
		if s.DefaultBER != nil {
			ber = *s.DefaultBER
		}
		return link.FromBER(ber, bits, prc)
	}
}

func (s *Spec) buildSchedule(net *topology.Network, ids map[string]topology.NodeID) (*schedule.Schedule, error) {
	sc := s.Schedule
	if sc.Policy != "" && len(sc.Slots) > 0 {
		return nil, errors.New("spec: schedule declares both a policy and explicit slots")
	}
	if sc.Channels != 0 && sc.Policy == "" && len(sc.Priority) == 0 {
		return nil, errors.New("spec: channels require a generated schedule (policy or priority)")
	}
	if sc.Policy != "" && len(sc.Priority) > 0 {
		return nil, errors.New("spec: schedule declares both a policy and a priority order")
	}
	if sc.Policy != "" || len(sc.Priority) > 0 {
		routes, err := net.UplinkRoutes()
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		var order []topology.NodeID
		switch {
		case len(sc.Priority) > 0:
			for _, name := range sc.Priority {
				id, ok := ids[name]
				if !ok {
					return nil, fmt.Errorf("spec: unknown node %q in priority", name)
				}
				order = append(order, id)
			}
		case sc.Policy == "shortest-first":
			order = schedule.ShortestFirst(routes)
		case sc.Policy == "longest-first":
			order = schedule.LongestFirst(routes)
		default:
			return nil, fmt.Errorf("spec: unknown schedule policy %q", sc.Policy)
		}
		return schedule.Build(routes, order, max(sc.Channels, 1), sc.ExtraIdle)
	}
	if sc.Fup == 0 {
		return nil, errors.New("spec: explicit schedule requires fup")
	}
	out, err := schedule.New(sc.Fup)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for i, tr := range sc.Slots {
		from, okF := ids[tr.From]
		to, okT := ids[tr.To]
		src, okS := ids[tr.Source]
		if !okF || !okT || !okS {
			return nil, fmt.Errorf("spec: schedule entry %d references unknown node", i)
		}
		if err := out.SetTransmission(tr.Slot, from, to, src); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	return out, nil
}

// TypicalSpec returns the paper's Fig. 12 network as a spec with schedule
// eta_a and the default physical parameters — a ready-made input for the
// CLI tools.
func TypicalSpec() *Spec {
	s := &Spec{
		Nodes: []Node{{Name: "G", Kind: "gateway"}},
		Schedule: Schedule{
			Policy:    "shortest-first",
			ExtraIdle: 1,
		},
		ReportingInterval: 4,
	}
	for i := 1; i <= 10; i++ {
		s.Nodes = append(s.Nodes, Node{Name: fmt.Sprintf("n%d", i)})
	}
	edges := [][2]string{
		{"n1", "G"}, {"n2", "G"}, {"n3", "G"},
		{"n4", "n1"}, {"n5", "n1"}, {"n6", "n2"},
		{"n7", "n3"}, {"n8", "n3"},
		{"n9", "n6"}, {"n10", "n7"},
	}
	for _, e := range edges {
		s.Links = append(s.Links, Link{A: e[0], B: e[1]})
	}
	return s
}
