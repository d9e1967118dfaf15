// Package schedule models the TDMA communication schedule of a
// WirelessHART superframe (paper Sections II and IV): a fixed sequence of
// 10 ms uplink slots, each either idle or dedicated to link transmissions
// relaying source nodes' messages. The paper's eta is the one-channel
// schedule, one transmission per slot; with more frequency channels a
// slot holds up to one node-disjoint transmission per channel. Build is
// the priority-based builder of the paper's scheduling study (Section
// VI-B, schedules eta_a and eta_b); New and SetTransmission lay out an
// explicit one-channel frame.
package schedule

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"wirelesshart/internal/topology"
)

// SlotDurationMS is the WirelessHART slot length: strict 10 millisecond
// TDMA slots.
const SlotDurationMS = 10

// maxChannels is the number of WirelessHART frequency channels.
const maxChannels = 16

// Entry is one transmission of the communication schedule: From
// transmits to To, relaying the message originated by Source (the
// paper's slot dedication, implicit in its eta notation).
type Entry struct {
	From   topology.NodeID
	To     topology.NodeID
	Source topology.NodeID
}

// Schedule is an uplink communication schedule over Fup slots, each
// holding up to channels transmissions that involve no node twice (the
// standard allows one transaction per frequency channel per slot, and a
// radio cannot transmit and receive at once). The paper's eta is the
// one-channel case. Slots are 1-based to match the paper's age
// convention (a message transmitted in the slot s of the first frame
// arrives with age s).
type Schedule struct {
	channels int
	slots    [][]Entry                 // slots[i] holds the transmissions of slot i+1
	bySource map[topology.NodeID][]int // each source's 1-based slots in slot order
}

// New returns a one-channel schedule of fup idle slots, to be filled
// with SetTransmission.
func New(fup int) (*Schedule, error) {
	if fup < 1 {
		return nil, fmt.Errorf("schedule: frame needs at least one slot, got %d", fup)
	}
	s := &Schedule{channels: 1, slots: make([][]Entry, fup), bySource: map[topology.NodeID][]int{}}
	cells := make([]Entry, fup)
	for i := range s.slots {
		s.slots[i] = cells[i : i : i+1]
	}
	return s, nil
}

// Fup returns the uplink frame size in slots.
func (s *Schedule) Fup() int { return len(s.slots) }

// SetTransmission dedicates a 1-based slot to a transmission from -> to
// relaying source's message. The slot must have a free channel (for a
// schedule from New, be idle: TDMA, one transmission per slot
// network-wide).
func (s *Schedule) SetTransmission(slot int, from, to, source topology.NodeID) error {
	if slot < 1 || slot > len(s.slots) {
		return fmt.Errorf("schedule: slot %d out of [1,%d]", slot, len(s.slots))
	}
	if len(s.slots[slot-1]) >= s.channels {
		return fmt.Errorf("schedule: slot %d already allocated", slot)
	}
	if from == to {
		return fmt.Errorf("schedule: slot %d transmission loops on node %d", slot, from)
	}
	s.slots[slot-1] = append(s.slots[slot-1], Entry{From: from, To: to, Source: source})
	slots := s.bySource[source]
	i, _ := slices.BinarySearch(slots, slot)
	s.bySource[source] = slices.Insert(slots, i, slot)
	return nil
}

// SlotsForSource returns the 1-based slots dedicated to relaying source's
// message, in slot order (a copy; nil for a source without slots).
func (s *Schedule) SlotsForSource(source topology.NodeID) []int {
	return slices.Clone(s.bySource[source])
}

// ValidateSources checks the schedule against a network and its uplink
// routes: no slot holds more transmissions than channels or involves a
// node twice, every transmission follows an existing link and relays a
// routed source, and each of the given reporting sources has one
// dedicated slot per hop of its route, in causal order within the frame
// (so a fresh message can traverse the whole path in one cycle). Routed
// field devices left out of sources act purely as relays.
func (s *Schedule) ValidateSources(n *topology.Network, routes map[topology.NodeID]topology.Path, sources []topology.NodeID) error {
	for i, entries := range s.slots {
		if len(entries) > s.channels {
			return fmt.Errorf("schedule: slot %d has %d transmissions over %d channels", i+1, len(entries), s.channels)
		}
		for j, e := range entries {
			if _, ok := n.LinkBetween(e.From, e.To); !ok {
				return fmt.Errorf("schedule: slot %d uses non-existent link %d-%d", i+1, e.From, e.To)
			}
			if _, ok := routes[e.Source]; !ok {
				return fmt.Errorf("schedule: slot %d dedicated to unknown source %d", i+1, e.Source)
			}
			for _, prev := range entries[:j] {
				if prev.involves(e.From) || prev.involves(e.To) {
					return fmt.Errorf("schedule: slot %d has a node conflict", i+1)
				}
			}
		}
	}
	for _, src := range sources {
		p, ok := routes[src]
		if !ok {
			return fmt.Errorf("schedule: reporting source %d has no route", src)
		}
		slots := s.bySource[src]
		if len(slots) != p.Hops() {
			return fmt.Errorf("schedule: source %d has %d dedicated slots for a %d-hop route",
				src, len(slots), p.Hops())
		}
		nodes := p.Nodes()
		for h, slot := range slots {
			// bySource lists only slots that hold one of src's transmissions.
			entries := s.slots[slot-1]
			e := entries[slices.IndexFunc(entries, func(e Entry) bool { return e.Source == src })]
			if e.From != nodes[h] || e.To != nodes[h+1] {
				return fmt.Errorf("schedule: source %d hop %d scheduled as %d->%d, route says %d->%d",
					src, h+1, e.From, e.To, nodes[h], nodes[h+1])
			}
		}
	}
	return nil
}

// involves reports whether the node transmits or receives in e.
func (e Entry) involves(node topology.NodeID) bool { return e.From == node || e.To == node }

// Format renders the schedule in the paper's eta notation, with "*" for
// idle slots and parallel transmissions joined by "|", using node names
// from the network.
func (s *Schedule) Format(n *topology.Network) string {
	b := []byte{'('}
	for i, entries := range s.slots {
		if i > 0 {
			b = append(b, ", "...)
		}
		if len(entries) == 0 {
			b = append(b, '*')
			continue
		}
		for j, e := range entries {
			if j > 0 {
				b = append(b, '|')
			}
			b = append(b, '<')
			from, errF := n.Node(e.From)
			to, errT := n.Node(e.To)
			if errF != nil || errT != nil {
				b = strconv.AppendInt(b, int64(e.From), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(e.To), 10)
			} else {
				b = append(b, from.Name...)
				b = append(b, ',')
				b = append(b, to.Name...)
			}
			b = append(b, '>')
		}
	}
	return string(append(b, ')'))
}

// Build constructs a schedule over the given number of frequency
// channels (1..16) by greedy list scheduling: sources in priority order,
// each hop placed at the earliest slot after its predecessor hop with a
// free channel and no node conflict. With one channel every source's
// hops take consecutive slots (the paper's eta_a results from
// shortest-first priority, eta_b from longest-first). extraIdle idle
// slots are appended to reach a desired frame size (the paper's typical
// network pads the 19 transmissions to Fup = 20).
func Build(routes map[topology.NodeID]topology.Path, order []topology.NodeID, channels, extraIdle int) (*Schedule, error) {
	if extraIdle < 0 {
		return nil, fmt.Errorf("schedule: negative idle padding %d", extraIdle)
	}
	if channels < 1 || channels > maxChannels {
		return nil, fmt.Errorf("schedule: channels %d out of [1,%d]", channels, maxChannels)
	}
	if len(order) != len(routes) {
		return nil, fmt.Errorf("schedule: priority order has %d sources, routes have %d", len(order), len(routes))
	}
	total := 0
	seen := make(map[topology.NodeID]bool, len(order))
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
	s := &Schedule{
		channels: channels,
		slots:    make([][]Entry, 0, total+extraIdle),
		bySource: make(map[topology.NodeID][]int, len(order)),
	}
	// Every slot before open is full, so a placement scan starts there:
	// with one channel it is the frame's end and each hop takes one step.
	// Each slot holds at least one of the total transmissions, so cells
	// has a first entry for every slot the frame grows.
	open := 0
	cells := make([]Entry, total)
	table := make([]int, 0, total)
	for _, src := range order {
		nodes := routes[src].Nodes()
		first := len(table)
		after := 0
		for h := 0; h+1 < len(nodes); h++ {
			after = s.place(max(after, open), cells, nodes[h], nodes[h+1], src)
			table = append(table, after)
			for open < len(s.slots) && len(s.slots[open]) == channels {
				open++
			}
		}
		s.bySource[src] = table[first:len(table):len(table)]
	}
	for i := 0; i < extraIdle; i++ {
		s.slots = append(s.slots, nil)
	}
	return s, nil
}

// place schedules a transmission at the earliest slot at or after the
// 0-based index from that has a free channel and no node conflict,
// growing the frame as needed: slot i+1 starts in cells[i]. It returns
// the 1-based slot.
func (s *Schedule) place(from int, cells []Entry, tx, rx, source topology.NodeID) int {
	for idx := from; ; idx++ {
		if idx == len(s.slots) {
			s.slots = append(s.slots, cells[idx:idx:idx+1])
		}
		entries := s.slots[idx]
		if len(entries) == s.channels || slices.ContainsFunc(entries, func(e Entry) bool { return e.involves(tx) || e.involves(rx) }) {
			continue
		}
		s.slots[idx] = append(entries, Entry{From: tx, To: rx, Source: source})
		return idx + 1
	}
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
