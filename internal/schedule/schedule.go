// Package schedule models the TDMA communication schedule of a
// WirelessHART superframe (paper Sections II and IV): a fixed sequence of
// 10 ms uplink slots, each either idle or dedicated to one link
// transmission relaying one source node's message. It provides the
// priority-based schedule builders used in the paper's scheduling study
// (Section VI-B, schedules eta_a and eta_b).
package schedule

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"wirelesshart/internal/topology"
)

// SlotDurationMS is the WirelessHART slot length: strict 10 millisecond
// TDMA slots.
const SlotDurationMS = 10

// Entry is one slot of the communication schedule. An idle entry has Idle
// set; otherwise From transmits to To, relaying the message originated by
// Source (the paper's slot dedication, implicit in its eta notation).
type Entry struct {
	Idle   bool
	From   topology.NodeID
	To     topology.NodeID
	Source topology.NodeID
}

// Schedule is an uplink communication schedule over Fup slots. Slots are
// 1-based to match the paper's age convention (a message transmitted in the
// slot s of the first frame arrives with age s).
type Schedule struct {
	entries []Entry
}

// New returns a schedule of fup idle slots.
func New(fup int) (*Schedule, error) {
	if fup < 1 {
		return nil, fmt.Errorf("schedule: frame needs at least one slot, got %d", fup)
	}
	entries := make([]Entry, fup)
	for i := range entries {
		entries[i].Idle = true
	}
	return &Schedule{entries: entries}, nil
}

// Fup returns the uplink frame size in slots.
func (s *Schedule) Fup() int { return len(s.entries) }

// Entry returns the entry of a 1-based slot.
func (s *Schedule) Entry(slot int) (Entry, error) {
	if slot < 1 || slot > len(s.entries) {
		return Entry{}, fmt.Errorf("schedule: slot %d out of [1,%d]", slot, len(s.entries))
	}
	return s.entries[slot-1], nil
}

// SetTransmission dedicates a 1-based slot to a transmission from -> to
// relaying source's message. The slot must currently be idle (TDMA: one
// transmission per slot network-wide).
func (s *Schedule) SetTransmission(slot int, from, to, source topology.NodeID) error {
	if slot < 1 || slot > len(s.entries) {
		return fmt.Errorf("schedule: slot %d out of [1,%d]", slot, len(s.entries))
	}
	if !s.entries[slot-1].Idle {
		return fmt.Errorf("schedule: slot %d already allocated", slot)
	}
	if from == to {
		return fmt.Errorf("schedule: slot %d transmission loops on node %d", slot, from)
	}
	s.entries[slot-1] = Entry{From: from, To: to, Source: source}
	return nil
}

// EntriesAt returns the slot's transmissions (zero or one entries for a
// single-channel schedule), implementing ExecutablePlan.
func (s *Schedule) EntriesAt(slot int) ([]Entry, error) {
	e, err := s.Entry(slot)
	if err != nil {
		return nil, err
	}
	if e.Idle {
		return nil, nil
	}
	return []Entry{e}, nil
}

// SlotsForSource returns the 1-based slots dedicated to relaying source's
// message, in slot order.
func (s *Schedule) SlotsForSource(source topology.NodeID) []int {
	var out []int
	for i, e := range s.entries {
		if !e.Idle && e.Source == source {
			out = append(out, i+1)
		}
	}
	return out
}

// Validate checks the schedule against a network and its uplink routes:
// every transmission must follow an existing link and belong to the
// dedicated source's route, every route's hops must each have at least one
// dedicated slot, and the hops must be scheduled in causal order within the
// frame (so a fresh message can traverse the whole path in one cycle).
func (s *Schedule) Validate(n *topology.Network, routes map[topology.NodeID]topology.Path) error {
	return s.ValidateSources(n, routes, topology.SortedSources(routes))
}

// ValidateSources is Validate restricted to the given reporting sources:
// only those must have complete dedicated slot sequences. Use it for
// networks where some routed field devices act purely as relays.
func (s *Schedule) ValidateSources(n *topology.Network, routes map[topology.NodeID]topology.Path, sources []topology.NodeID) error {
	for i, e := range s.entries {
		if e.Idle {
			continue
		}
		if _, ok := n.LinkBetween(e.From, e.To); !ok {
			return fmt.Errorf("schedule: slot %d uses non-existent link %d-%d", i+1, e.From, e.To)
		}
		if _, ok := routes[e.Source]; !ok {
			return fmt.Errorf("schedule: slot %d dedicated to unknown source %d", i+1, e.Source)
		}
	}
	for _, src := range sources {
		p, ok := routes[src]
		if !ok {
			return fmt.Errorf("schedule: reporting source %d has no route", src)
		}
		slots := s.SlotsForSource(src)
		if len(slots) != p.Hops() {
			return fmt.Errorf("schedule: source %d has %d dedicated slots for a %d-hop route",
				src, len(slots), p.Hops())
		}
		nodes := p.Nodes()
		for h := 0; h < p.Hops(); h++ {
			e := s.entries[slots[h]-1]
			if e.From != nodes[h] || e.To != nodes[h+1] {
				return fmt.Errorf("schedule: source %d hop %d scheduled as %d->%d, route says %d->%d",
					src, h+1, e.From, e.To, nodes[h], nodes[h+1])
			}
		}
	}
	return nil
}

// Format renders the schedule in the paper's eta notation, with "*" for
// idle slots, using node names from the network.
func (s *Schedule) Format(n *topology.Network) string {
	parts := make([]string, len(s.entries))
	for i, e := range s.entries {
		if e.Idle {
			parts[i] = "*"
			continue
		}
		from, errF := n.Node(e.From)
		to, errT := n.Node(e.To)
		if errF != nil || errT != nil {
			parts[i] = fmt.Sprintf("<%d,%d>", e.From, e.To)
			continue
		}
		parts[i] = fmt.Sprintf("<%s,%s>", from.Name, to.Name)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// BuildPriority constructs a schedule by allocating, for each source in the
// given priority order, one consecutive slot per hop of its route (the
// paper's eta_a results from shortest-first priority, eta_b from
// longest-first). extraIdle idle slots are appended to reach a desired
// frame size (the paper's typical network pads the 19 transmissions to
// Fup = 20).
func BuildPriority(routes map[topology.NodeID]topology.Path, order []topology.NodeID, extraIdle int) (*Schedule, error) {
	if extraIdle < 0 {
		return nil, fmt.Errorf("schedule: negative idle padding %d", extraIdle)
	}
	if len(order) != len(routes) {
		return nil, fmt.Errorf("schedule: priority order has %d sources, routes have %d", len(order), len(routes))
	}
	total := 0
	seen := map[topology.NodeID]bool{}
	for _, src := range order {
		p, ok := routes[src]
		if !ok {
			return nil, fmt.Errorf("schedule: priority order includes source %d without a route", src)
		}
		if seen[src] {
			return nil, fmt.Errorf("schedule: source %d appears twice in priority order", src)
		}
		seen[src] = true
		total += p.Hops()
	}
	if total == 0 {
		return nil, errors.New("schedule: no transmissions to allocate")
	}
	s, err := New(total + extraIdle)
	if err != nil {
		return nil, err
	}
	slot := 1
	for _, src := range order {
		nodes := routes[src].Nodes()
		for h := 0; h+1 < len(nodes); h++ {
			if err := s.SetTransmission(slot, nodes[h], nodes[h+1], src); err != nil {
				return nil, err
			}
			slot++
		}
	}
	return s, nil
}

// ShortestFirst returns the priority order used for the paper's eta_a:
// ascending hop count, ties broken by ascending source id.
func ShortestFirst(routes map[topology.NodeID]topology.Path) []topology.NodeID {
	return orderBy(routes, func(a, b topology.NodeID) bool {
		ha, hb := routes[a].Hops(), routes[b].Hops()
		if ha != hb {
			return ha < hb
		}
		return a < b
	})
}

// LongestFirst returns the opposite priority: descending hop count, ties
// broken by ascending source id. The paper's eta_b follows this policy
// (its exact tie order is not printed; see the experiments package for the
// reconstruction that matches the paper's reported delays).
func LongestFirst(routes map[topology.NodeID]topology.Path) []topology.NodeID {
	return orderBy(routes, func(a, b topology.NodeID) bool {
		ha, hb := routes[a].Hops(), routes[b].Hops()
		if ha != hb {
			return ha > hb
		}
		return a < b
	})
}

func orderBy(routes map[topology.NodeID]topology.Path, less func(a, b topology.NodeID) bool) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(routes))
	for src := range routes {
		out = append(out, src)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
