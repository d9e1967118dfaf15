package schedule

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wirelesshart/internal/topology"
)

func TestNewMultiScheduleValidation(t *testing.T) {
	_, _, routes := typical(t)
	order := ShortestFirst(routes)
	if _, err := Build(routes, order, 0, 0); err == nil {
		t.Error("zero channels should error")
	}
	if _, err := Build(routes, order, 17, 0); err == nil {
		t.Error("17 channels should error")
	}
	m, err := Build(routes, order, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.channels != 16 {
		t.Errorf("16-channel schedule: channels=%d", m.channels)
	}
	s, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.channels != 1 || s.Fup() != 3 {
		t.Errorf("explicit frame: channels=%d fup=%d, want 1 and 3", s.channels, s.Fup())
	}
}

func TestBuildMultiChannelSingleChannelMatchesLowerBound(t *testing.T) {
	// With one channel the greedy scheduler needs exactly 19 slots for
	// the typical network (one per transmission).
	_, _, routes := typical(t)
	m, err := Build(routes, ShortestFirst(routes), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fup() != 19 {
		t.Errorf("single-channel frame = %d, want 19", m.Fup())
	}
}

func TestBuildMultiChannelShrinksFrame(t *testing.T) {
	net, _, routes := typical(t)
	var prev int
	for _, ch := range []int{1, 2, 3, 4} {
		m, err := Build(routes, ShortestFirst(routes), ch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ch == 1 {
			prev = m.Fup()
		} else if m.Fup() > prev {
			t.Errorf("%d channels: frame %d grew from %d", ch, m.Fup(), prev)
		} else {
			prev = m.Fup()
		}
		sources := make([]topology.NodeID, 0, len(routes))
		for src := range routes {
			sources = append(sources, src)
		}
		if err := m.ValidateSources(net, routes, sources); err != nil {
			t.Errorf("%d channels: validation failed: %v", ch, err)
		}
	}
	// Plenty of parallelism: the frame must shrink well below 19. The
	// gateway is the common receiver, so the lower bound is the number of
	// gateway-bound transmissions (10 paths -> 10 gateway receptions).
	m4, _ := Build(routes, ShortestFirst(routes), 4, 0)
	if m4.Fup() > 14 {
		t.Errorf("4 channels: frame = %d, want substantially below 19", m4.Fup())
	}
	if m4.Fup() < 10 {
		t.Errorf("4 channels: frame = %d below gateway-reception lower bound 10", m4.Fup())
	}
}

func TestMultiChannelNoNodeConflicts(t *testing.T) {
	net, _, routes := typical(t)
	m, err := Build(routes, ShortestFirst(routes), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= m.Fup(); slot++ {
		entries, err := m.EntriesAt(slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 4 {
			t.Errorf("slot %d has %d entries over 4 channels", slot, len(entries))
		}
		busy := map[topology.NodeID]int{}
		for _, e := range entries {
			busy[e.From]++
			busy[e.To]++
		}
		for node, count := range busy {
			if count > 1 {
				t.Errorf("slot %d: node %d involved in %d transmissions", slot, node, count)
			}
		}
	}
	_ = net
}

func TestMultiChannelCausalOrder(t *testing.T) {
	_, sources, routes := typical(t)
	m, err := Build(routes, ShortestFirst(routes), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		slots := m.SlotsForSource(src)
		if len(slots) != routes[src].Hops() {
			t.Fatalf("source %d: %d slots for %d hops", src, len(slots), routes[src].Hops())
		}
		for i := 1; i < len(slots); i++ {
			if slots[i] <= slots[i-1] {
				t.Errorf("source %d: slots %v not strictly increasing", src, slots)
			}
		}
	}
}

func TestMultiChannelEntriesBounds(t *testing.T) {
	_, _, routes := typical(t)
	m, _ := Build(routes, ShortestFirst(routes), 2, 1)
	if _, err := m.EntriesAt(0); err == nil {
		t.Error("slot 0 should error")
	}
	if _, err := m.EntriesAt(m.Fup() + 1); err == nil {
		t.Error("slot beyond frame should error")
	}
	// Idle padding adds empty slots.
	last, err := m.EntriesAt(m.Fup())
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 0 {
		t.Errorf("padded slot should be empty, has %d entries", len(last))
	}
}

func TestBuildMultiChannelValidation(t *testing.T) {
	_, _, routes := typical(t)
	order := ShortestFirst(routes)
	if _, err := Build(routes, order[:3], 2, 0); err == nil {
		t.Error("incomplete order should error")
	}
	if _, err := Build(routes, order, 2, -1); err == nil {
		t.Error("negative padding should error")
	}
	dup := append([]topology.NodeID{}, order...)
	dup[0] = dup[1]
	if _, err := Build(routes, dup, 2, 0); err == nil {
		t.Error("duplicate source should error")
	}
	if _, err := Build(map[topology.NodeID]topology.Path{}, nil, 2, 0); err == nil {
		t.Error("empty routes should error")
	}
}

func TestMultiChannelFormat(t *testing.T) {
	net, _, routes := typical(t)
	m, _ := Build(routes, ShortestFirst(routes), 4, 0)
	out := m.Format(net)
	if !strings.Contains(out, "|") {
		t.Errorf("4-channel format should show parallel transmissions: %s", out)
	}
	if !strings.Contains(out, "<n1,G>") {
		t.Errorf("format missing entries: %s", out)
	}
}

// formatSprintf is the multi-channel Format as it was first written, with a
// fmt.Sprintf per entry and two strings.Joins.
func formatSprintf(m *Schedule, n *topology.Network) string {
	parts := make([]string, len(m.slots))
	for i, entries := range m.slots {
		if len(entries) == 0 {
			parts[i] = "*"
			continue
		}
		sub := make([]string, len(entries))
		for j, e := range entries {
			from, errF := n.Node(e.From)
			to, errT := n.Node(e.To)
			if errF != nil || errT != nil {
				sub[j] = fmt.Sprintf("<%d,%d>", e.From, e.To)
				continue
			}
			sub[j] = fmt.Sprintf("<%s,%s>", from.Name, to.Name)
		}
		parts[i] = strings.Join(sub, "|")
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TestMultiChannelFormatMatchesSprintf pins Format's text against the
// Sprintf form: one to four channels, both priority orders, idle padding,
// and ids the network cannot name (the <id,id> fallback).
func TestMultiChannelFormatMatchesSprintf(t *testing.T) {
	net, _, routes := typical(t)
	partial := topology.NewNetwork()
	for _, name := range []string{"G", "n1", "n2"} {
		if _, err := partial.AddNode(name, topology.FieldDevice); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range [][]topology.NodeID{ShortestFirst(routes), LongestFirst(routes)} {
		for channels := 1; channels <= 4; channels++ {
			for _, idle := range []int{0, 3} {
				m, err := Build(routes, order, channels, idle)
				if err != nil {
					t.Fatal(err)
				}
				for name, n := range map[string]*topology.Network{"typical": net, "partial": partial, "empty": topology.NewNetwork()} {
					if got, want := m.Format(n), formatSprintf(m, n); got != want {
						t.Errorf("%d channels, %d idle, %s names:\n got %s\nwant %s", channels, idle, name, got, want)
					}
				}
			}
		}
	}
	idle, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := idle.Format(net), formatSprintf(idle, net); got != want || got != "(*, *, *)" {
		t.Errorf("idle schedule: got %s, want %s", got, want)
	}
}

func TestMultiChannelPropertyOverRandomPlants(t *testing.T) {
	// For random plant networks: the frame at c channels never exceeds
	// the one-channel frame, and both validate.
	f := func(seed int64, nodesRaw, chRaw uint8) bool {
		nodes := int(nodesRaw%15) + 5 // 5..19 devices
		channels := int(chRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		net, _, err := topology.RandomPlantNetwork(nodes, rng)
		if err != nil {
			return false
		}
		routes, err := net.UplinkRoutes()
		if err != nil {
			return false
		}
		order := ShortestFirst(routes)
		single, err := Build(routes, order, 1, 0)
		if err != nil {
			return false
		}
		multi, err := Build(routes, order, channels, 0)
		if err != nil {
			return false
		}
		if multi.Fup() > single.Fup() {
			return false
		}
		sources := topology.SortedSources(routes)
		if err := multi.ValidateSources(net, routes, sources); err != nil {
			return false
		}
		return single.ValidateSources(net, routes, sources) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMultiChannelValidateCatchesOverflows(t *testing.T) {
	net, _, routes := typical(t)
	m, err := Build(routes, ShortestFirst(routes), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the declared channel capacity below what was scheduled.
	m.channels = 1
	sources := make([]topology.NodeID, 0, len(routes))
	for src := range routes {
		sources = append(sources, src)
	}
	if err := m.ValidateSources(net, routes, sources); err == nil {
		t.Error("over-capacity slot should fail validation")
	}
}
