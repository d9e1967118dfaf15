package schedule

import (
	"strings"
	"testing"

	"wirelesshart/internal/topology"
)

func typical(t *testing.T) (*topology.Network, []topology.NodeID, map[topology.NodeID]topology.Path) {
	t.Helper()
	n, sources, err := topology.TypicalNetwork()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := n.UplinkRoutes()
	if err != nil {
		t.Fatal(err)
	}
	return n, sources, routes
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero-slot schedule should error")
	}
	s, err := New(7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fup() != 7 {
		t.Errorf("Fup() = %d, want 7", s.Fup())
	}
	entries, err := s.EntriesAt(1)
	if err != nil || len(entries) != 0 {
		t.Errorf("fresh slot should be idle: %+v, %v", entries, err)
	}
	if _, err := s.EntriesAt(0); err == nil {
		t.Error("slot 0 should error (1-based)")
	}
	if _, err := s.EntriesAt(8); err == nil {
		t.Error("slot beyond frame should error")
	}
}

func TestSetTransmission(t *testing.T) {
	s, _ := New(7)
	if err := s.SetTransmission(3, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	entries, err := s.EntriesAt(3)
	if err != nil || len(entries) != 1 || entries[0] != (Entry{From: 1, To: 2, Source: 1}) {
		t.Errorf("entries = %+v, %v", entries, err)
	}
	if err := s.SetTransmission(3, 2, 3, 1); err == nil {
		t.Error("double-booking a slot should error")
	}
	if err := s.SetTransmission(0, 1, 2, 1); err == nil {
		t.Error("slot 0 should error")
	}
	if err := s.SetTransmission(4, 2, 2, 1); err == nil {
		t.Error("self transmission should error")
	}
}

func TestSlotsForSource(t *testing.T) {
	s, _ := New(7)
	// Example path of Section V-A: slots 3, 6, 7 for source 1.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.SetTransmission(3, 1, 2, 1))
	must(s.SetTransmission(6, 2, 3, 1))
	must(s.SetTransmission(7, 3, 0, 1))
	got := s.SlotsForSource(1)
	want := []int{3, 6, 7}
	if len(got) != 3 {
		t.Fatalf("SlotsForSource = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if got := s.SlotsForSource(99); got != nil {
		t.Errorf("unknown source slots = %v, want nil", got)
	}
}

func TestBuildPriorityEtaA(t *testing.T) {
	// Shortest-first priority over the typical network must produce the
	// paper's eta_a: 19 transmissions, paths allocated in order 1..10.
	n, sources, routes := typical(t)
	order := ShortestFirst(routes)
	s, err := Build(routes, order, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fup() != 20 {
		t.Errorf("Fup() = %d, want 20 (19 transmissions + 1 idle)", s.Fup())
	}
	// Paper's eta_a anchors: path 1 transmits at slot 1; path 4 at slots
	// 4-5; path 10 at slots 17-19.
	checks := []struct {
		source topology.NodeID
		slots  []int
	}{
		{source: sources[0], slots: []int{1}},
		{source: sources[3], slots: []int{4, 5}},
		{source: sources[9], slots: []int{17, 18, 19}},
	}
	for _, c := range checks {
		got := s.SlotsForSource(c.source)
		if len(got) != len(c.slots) {
			t.Fatalf("source %d slots = %v, want %v", c.source, got, c.slots)
		}
		for i := range c.slots {
			if got[i] != c.slots[i] {
				t.Errorf("source %d slot[%d] = %d, want %d", c.source, i, got[i], c.slots[i])
			}
		}
	}
	if err := s.ValidateSources(n, routes, topology.SortedSources(routes)); err != nil {
		t.Errorf("eta_a failed validation: %v", err)
	}
}

func TestBuildPriorityEtaBReconstruction(t *testing.T) {
	// The reconstructed eta_b: order 9,10,4,5,6,8,7,1,2,3 puts path 10's
	// last hop at slot 6 and path 7's at slot 16 (the anchors that match
	// the paper's Fig. 16).
	n, sources, routes := typical(t)
	order := []topology.NodeID{
		sources[8], sources[9], sources[3], sources[4], sources[5],
		sources[7], sources[6], sources[0], sources[1], sources[2],
	}
	s, err := Build(routes, order, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slots := s.SlotsForSource(sources[9]); slots[len(slots)-1] != 6 {
		t.Errorf("path 10 last slot = %d, want 6", slots[len(slots)-1])
	}
	if slots := s.SlotsForSource(sources[6]); slots[len(slots)-1] != 16 {
		t.Errorf("path 7 last slot = %d, want 16", slots[len(slots)-1])
	}
	if err := s.ValidateSources(n, routes, topology.SortedSources(routes)); err != nil {
		t.Errorf("eta_b failed validation: %v", err)
	}
}

func TestShortestFirstOrder(t *testing.T) {
	_, sources, routes := typical(t)
	order := ShortestFirst(routes)
	if len(order) != 10 {
		t.Fatalf("order length %d", len(order))
	}
	// Ascending hops, ties by id: exactly sources[0..9].
	for i, src := range order {
		if src != sources[i] {
			t.Errorf("order[%d] = %v, want %v", i, src, sources[i])
		}
	}
}

func TestLongestFirstOrder(t *testing.T) {
	_, sources, routes := typical(t)
	order := LongestFirst(routes)
	// Descending hops: 9, 10 first, then the five 2-hop, then 1-hop.
	if order[0] != sources[8] || order[1] != sources[9] {
		t.Errorf("longest-first should start with paths 9, 10: %v", order[:2])
	}
	if routes[order[9]].Hops() != 1 {
		t.Error("longest-first should end with a 1-hop path")
	}
}

func TestBuildPriorityValidation(t *testing.T) {
	_, sources, routes := typical(t)
	order := ShortestFirst(routes)
	if _, err := Build(routes, order[:5], 1, 0); err == nil {
		t.Error("incomplete priority order should error")
	}
	if _, err := Build(routes, order, 1, -1); err == nil {
		t.Error("negative padding should error")
	}
	dup := append([]topology.NodeID{}, order...)
	dup[1] = dup[0]
	if _, err := Build(routes, dup, 1, 0); err == nil {
		t.Error("duplicate source should error")
	}
	unknown := append([]topology.NodeID{}, order...)
	unknown[0] = 999
	if _, err := Build(routes, unknown, 1, 0); err == nil {
		t.Error("unknown source should error")
	}
	_ = sources
}

func TestBuildPriorityEmptyRoutes(t *testing.T) {
	// Idle padding alone is no schedule, at any channel count.
	for channels := 1; channels <= 4; channels++ {
		for _, idle := range []int{0, 2} {
			if _, err := Build(map[topology.NodeID]topology.Path{}, nil, channels, idle); err == nil {
				t.Errorf("%d channels, %d idle: empty routes should error", channels, idle)
			}
		}
	}
}

func TestValidateCatchesBadSchedules(t *testing.T) {
	n, sources, routes := typical(t)
	// Missing slots for a route.
	s, _ := New(5)
	if err := s.ValidateSources(n, routes, topology.SortedSources(routes)); err == nil {
		t.Error("schedule without dedicated slots should fail validation")
	}
	// A transmission over a non-existent link.
	s2, _ := New(25)
	gw, _ := n.Gateway()
	if err := s2.SetTransmission(1, sources[9], gw, sources[9]); err != nil {
		t.Fatal(err)
	}
	if err := s2.ValidateSources(n, routes, topology.SortedSources(routes)); err == nil {
		t.Error("transmission over missing link should fail validation")
	}
}

func TestFormatEtaNotation(t *testing.T) {
	n, _, routes := typical(t)
	s, err := Build(routes, ShortestFirst(routes), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Format(n)
	for _, want := range []string{"<n1,G>", "<n4,n1>", "<n10,n7>", "*"} {
		if !strings.Contains(got, want) {
			t.Errorf("Format() missing %q: %s", want, got)
		}
	}
}

// ValidateSources walks the slots and the given sorted sources, never a
// map, so the FIRST violation reported (and thus the error message) is
// the same on every run, not whichever source a map yields first.
func TestValidateErrorDeterministic(t *testing.T) {
	n, _, routes := typical(t)
	s, _ := New(5) // no dedicated slots: every source violates
	first, want := s.ValidateSources(n, routes, topology.SortedSources(routes)), ""
	if first == nil {
		t.Fatal("empty schedule must fail validation")
	}
	want = first.Error()
	for trial := 0; trial < 30; trial++ {
		err := s.ValidateSources(n, routes, topology.SortedSources(routes))
		if err == nil || err.Error() != want {
			t.Fatalf("trial %d: error changed: %v, want %q", trial, err, want)
		}
	}
}

// TestValidateSourcesChecks: each of ValidateSources' checks rejects a
// schedule that breaks only it, at one channel or two.
func TestValidateSourcesChecks(t *testing.T) {
	n, sources, routes := typical(t)
	gw, _ := n.Gateway()
	n1, n4 := sources[0], sources[3]
	explicit := func(entries ...[4]int) *Schedule {
		t.Helper()
		s, err := New(5)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := s.SetTransmission(e[0], topology.NodeID(e[1]), topology.NodeID(e[2]), topology.NodeID(e[3])); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	conflict := &Schedule{
		channels: 2,
		slots:    [][]Entry{{{From: n4, To: n1, Source: n4}, {From: n1, To: gw, Source: n1}}},
		bySource: map[topology.NodeID][]int{n4: {1}, n1: {1}},
	}
	over := &Schedule{
		channels: 1,
		slots:    [][]Entry{{{From: n1, To: gw, Source: n1}, {From: sources[1], To: gw, Source: sources[1]}}},
		bySource: map[topology.NodeID][]int{n1: {1}, sources[1]: {1}},
	}
	cases := []struct {
		name    string
		s       *Schedule
		sources []topology.NodeID
		want    string
	}{
		{"capacity", over, nil, "transmissions over 1 channels"},
		{"node conflict", conflict, nil, "node conflict"},
		{"link existence", explicit([4]int{1, int(sources[9]), int(gw), int(sources[9])}), nil, "non-existent link"},
		{"unknown source", explicit([4]int{1, int(n1), int(gw), int(gw)}), nil, "unknown source"},
		{"no route", explicit(), []topology.NodeID{gw}, "has no route"},
		{"hop count", explicit([4]int{1, int(n4), int(n1), int(n4)}), []topology.NodeID{n4}, "2-hop route"},
		{"hop match", explicit([4]int{2, int(n4), int(n1), int(n4)}, [4]int{1, int(n1), int(gw), int(n4)}), []topology.NodeID{n4}, "hop 1 scheduled as"},
	}
	for _, c := range cases {
		err := c.s.ValidateSources(n, routes, c.sources)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The hop-match frame written in causal order validates.
	ok := explicit([4]int{1, int(n4), int(n1), int(n4)}, [4]int{2, int(n1), int(gw), int(n4)})
	if err := ok.ValidateSources(n, routes, []topology.NodeID{n4}); err != nil {
		t.Errorf("causal 2-hop frame: %v", err)
	}
}
