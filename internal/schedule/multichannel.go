package schedule

import (
	"fmt"
	"strconv"

	"wirelesshart/internal/topology"
)

// Plan is the scheduling contract the analyzer consumes: a frame length
// and, per reporting source, the ordered slots of its hops. Both the
// single-channel Schedule and the multi-channel MultiSchedule implement
// it.
type Plan interface {
	// Fup returns the uplink frame size in slots.
	Fup() int
	// SlotsForSource returns the 1-based slots of a source's hops.
	SlotsForSource(source topology.NodeID) []int
	// ValidateSources checks the plan against routes for the given
	// reporting sources.
	ValidateSources(n *topology.Network, routes map[topology.NodeID]topology.Path, sources []topology.NodeID) error
	// Format renders the plan using node names.
	Format(n *topology.Network) string
}

// ExecutablePlan is a Plan whose per-slot transmissions can be enumerated —
// what the discrete-event simulator needs to execute a schedule.
type ExecutablePlan interface {
	Plan
	// EntriesAt returns the transmissions of a 1-based slot.
	EntriesAt(slot int) ([]Entry, error)
}

// Compile-time interface checks.
var (
	_ ExecutablePlan = (*Schedule)(nil)
	_ ExecutablePlan = (*MultiSchedule)(nil)
)

// EntriesAt returns the slot's transmissions (MultiSchedule's Entries
// under the ExecutablePlan name).
func (m *MultiSchedule) EntriesAt(slot int) ([]Entry, error) { return m.Entries(slot) }

// MultiSchedule is a TDMA+FDMA communication schedule: the standard allows
// one transaction per frequency channel per slot, so up to Channels
// transmissions may share a slot as long as no node is involved in two of
// them (a WirelessHART radio cannot transmit and receive simultaneously).
// Multi-channel schedules shrink the uplink frame and therefore every
// path's delay.
type MultiSchedule struct {
	channels int
	slots    [][]Entry                 // slots[i] holds the entries of slot i+1
	bySource map[topology.NodeID][]int // each source's 1-based slots in hop order
}

// NewMultiSchedule returns an empty multi-channel schedule over the given
// number of frequency channels (1..16).
func NewMultiSchedule(channels int) (*MultiSchedule, error) {
	if channels < 1 || channels > 16 {
		return nil, fmt.Errorf("schedule: channels %d out of [1,16]", channels)
	}
	return &MultiSchedule{channels: channels}, nil
}

// Channels returns the number of parallel channels.
func (m *MultiSchedule) Channels() int { return m.channels }

// Fup returns the frame length in slots.
func (m *MultiSchedule) Fup() int { return len(m.slots) }

// Entries returns the transmissions of a 1-based slot (copy).
func (m *MultiSchedule) Entries(slot int) ([]Entry, error) {
	if slot < 1 || slot > len(m.slots) {
		return nil, fmt.Errorf("schedule: slot %d out of [1,%d]", slot, len(m.slots))
	}
	out := make([]Entry, len(m.slots[slot-1]))
	copy(out, m.slots[slot-1])
	return out, nil
}

// nodeBusy reports whether the node already transmits or receives in the
// slot (0-based index).
func (m *MultiSchedule) nodeBusy(idx int, node topology.NodeID) bool {
	for _, e := range m.slots[idx] {
		if e.From == node || e.To == node {
			return true
		}
	}
	return false
}

// place schedules a transmission at the earliest slot strictly after
// `after` (0 = start of frame) that has a free channel and no node
// conflict, growing the frame as needed. It returns the 1-based slot.
func (m *MultiSchedule) place(after int, from, to, source topology.NodeID) int {
	for idx := after; ; idx++ {
		for idx >= len(m.slots) {
			m.slots = append(m.slots, nil)
		}
		if len(m.slots[idx]) >= m.channels {
			continue
		}
		if m.nodeBusy(idx, from) || m.nodeBusy(idx, to) {
			continue
		}
		m.slots[idx] = append(m.slots[idx], Entry{From: from, To: to, Source: source})
		if m.bySource == nil {
			m.bySource = map[topology.NodeID][]int{}
		}
		m.bySource[source] = append(m.bySource[source], idx+1)
		return idx + 1
	}
}

// SlotsForSource returns the slots of a source's hops in hop order (a
// copy). place records them as it schedules each hop strictly after the
// previous one, so the table is already in ascending slot order.
func (m *MultiSchedule) SlotsForSource(source topology.NodeID) []int {
	slots := m.bySource[source]
	if slots == nil {
		return nil
	}
	return append(make([]int, 0, len(slots)), slots...)
}

// ValidateSources checks link existence, per-slot channel capacity and
// node-conflict freedom, and that every reporting source's hops are
// scheduled in causal order.
func (m *MultiSchedule) ValidateSources(n *topology.Network, routes map[topology.NodeID]topology.Path, sources []topology.NodeID) error {
	for i, entries := range m.slots {
		if len(entries) > m.channels {
			return fmt.Errorf("schedule: slot %d has %d transmissions over %d channels", i+1, len(entries), m.channels)
		}
		busy := map[topology.NodeID]bool{}
		for _, e := range entries {
			if _, ok := n.LinkBetween(e.From, e.To); !ok {
				return fmt.Errorf("schedule: slot %d uses non-existent link %d-%d", i+1, e.From, e.To)
			}
			if busy[e.From] || busy[e.To] {
				return fmt.Errorf("schedule: slot %d has a node conflict", i+1)
			}
			busy[e.From] = true
			busy[e.To] = true
		}
	}
	for _, src := range sources {
		p, ok := routes[src]
		if !ok {
			return fmt.Errorf("schedule: reporting source %d has no route", src)
		}
		slots := m.SlotsForSource(src)
		if len(slots) != p.Hops() {
			return fmt.Errorf("schedule: source %d has %d dedicated slots for a %d-hop route",
				src, len(slots), p.Hops())
		}
		nodes := p.Nodes()
		for h := 0; h < p.Hops(); h++ {
			entries := m.slots[slots[h]-1]
			found := false
			for _, e := range entries {
				if e.Source == src && e.From == nodes[h] && e.To == nodes[h+1] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("schedule: source %d hop %d not found at slot %d", src, h+1, slots[h])
			}
		}
	}
	return nil
}

// Format renders the schedule slot by slot, with parallel transmissions
// joined by "|".
func (m *MultiSchedule) Format(n *topology.Network) string {
	b := []byte{'('}
	for i, entries := range m.slots {
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

// BuildMultiChannel constructs a multi-channel schedule by greedy list
// scheduling: sources in priority order, each hop placed at the earliest
// conflict-free slot after its predecessor hop. extraIdle idle slots are
// appended.
func BuildMultiChannel(routes map[topology.NodeID]topology.Path, order []topology.NodeID, channels, extraIdle int) (*MultiSchedule, error) {
	if extraIdle < 0 {
		return nil, fmt.Errorf("schedule: negative idle padding %d", extraIdle)
	}
	if len(order) != len(routes) {
		return nil, fmt.Errorf("schedule: priority order has %d sources, routes have %d", len(order), len(routes))
	}
	m, err := NewMultiSchedule(channels)
	if err != nil {
		return nil, err
	}
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
		nodes := p.Nodes()
		after := 0
		for h := 0; h+1 < len(nodes); h++ {
			after = m.place(after, nodes[h], nodes[h+1], src)
		}
	}
	for i := 0; i < extraIdle; i++ {
		m.slots = append(m.slots, nil)
	}
	if m.Fup() == 0 {
		return nil, fmt.Errorf("schedule: no transmissions to allocate")
	}
	return m, nil
}
