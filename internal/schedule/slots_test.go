package schedule_test

import (
	"slices"
	"sort"
	"testing"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// scanSlots is the multi-channel SlotsForSource as it was first written:
// every slot of the frame scanned for the source, then sorted.
func scanSlots(m *schedule.Schedule, source topology.NodeID) []int {
	var out []int
	for slot := 1; slot <= m.Fup(); slot++ {
		entries, err := m.EntriesAt(slot)
		if err != nil {
			panic(err)
		}
		for _, e := range entries {
			if e.Source == source {
				out = append(out, slot)
			}
		}
	}
	sort.Ints(out)
	return out
}

// checkSlotTable compares SlotsForSource with the scan for every field
// device of n, sources and pure relays alike, and checks that the
// returned slice is a copy.
func checkSlotTable(t *testing.T, name string, m *schedule.Schedule, n *topology.Network) {
	t.Helper()
	for _, id := range n.FieldDevices() {
		got, want := m.SlotsForSource(id), scanSlots(m, id)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: source %d slots %v, want %v", name, id, got, want)
		}
		if len(got) > 0 {
			got[0] = -1
			if again := m.SlotsForSource(id); again[0] == -1 {
				t.Fatalf("%s: SlotsForSource returned the table itself", name)
			}
		}
	}
}

// TestSlotsForSourceMatchesScan: the per-source slot table answers as the
// frame scan did, on schedules of the typical network (one to four
// channels, both priority orders) and on 200 generated networks.
func TestSlotsForSourceMatchesScan(t *testing.T) {
	built, err := spec.TypicalSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := built.Net.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]topology.NodeID{schedule.ShortestFirst(routes), schedule.LongestFirst(routes)} {
		for channels := 1; channels <= 4; channels++ {
			m, err := schedule.Build(routes, order, channels, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkSlotTable(t, "typical", m, built.Net)
		}
	}
	for i := 0; i < 200; i++ {
		g, err := gen.Generate(1, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkSlotTable(t, "generated", b.Schedule, b.Net)
	}
}
