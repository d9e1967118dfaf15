package schedule_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// updateGolden regenerates testdata/schedules.golden:
// UPDATE_GOLDEN=1 go test ./internal/schedule -run TestScheduleGolden
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// goldenCase is one spec whose realized schedule the golden table pins.
// A digest case is pinned by the SHA-256 of its rendering, which keeps
// the 512 generated schedules to one line each.
type goldenCase struct {
	name   string
	spec   *spec.Spec
	digest bool
}

// goldenCases lists the paper's eta_a and eta_b on the typical network,
// 64 generated networks at one to four channels under both policies, and
// explicit frames whose slots are listed out of slot order.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	etaA := spec.TypicalSpec()
	etaB := spec.TypicalSpec()
	etaB.Schedule.Policy = ""
	etaB.Schedule.Priority = []string{"n9", "n10", "n4", "n5", "n6", "n8", "n7", "n1", "n2", "n3"}
	cases := []goldenCase{{"typical eta_a", etaA, false}, {"typical eta_b", etaB, false}}

	// The typical network's eta_a written out slot by slot, last slot first.
	reversed := spec.TypicalSpec()
	reversed.Schedule = spec.Schedule{Fup: 20}
	for i := 1; i <= 10; i++ {
		src := fmt.Sprintf("n%d", i)
		nodes := typicalRoute(src)
		for h := 0; h+1 < len(nodes); h++ {
			reversed.Schedule.Slots = append(reversed.Schedule.Slots, spec.Transmission{From: nodes[h], To: nodes[h+1], Source: src})
		}
	}
	for i := range reversed.Schedule.Slots {
		reversed.Schedule.Slots[i].Slot = i + 1
	}
	for i, j := 0, len(reversed.Schedule.Slots)-1; i < j; i, j = i+1, j-1 {
		reversed.Schedule.Slots[i], reversed.Schedule.Slots[j] = reversed.Schedule.Slots[j], reversed.Schedule.Slots[i]
	}
	cases = append(cases, goldenCase{"explicit eta_a reversed", reversed, false})

	// Section V-A's 3-hop path at slots 3, 6, 7 of a 7-slot frame, listed
	// as 7, 3, 6.
	chain := &spec.Spec{
		Nodes: []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a"}, {Name: "b"}, {Name: "c"}},
		Links: []spec.Link{{A: "a", B: "b"}, {A: "b", B: "c"}, {A: "c", B: "G"}},
		Schedule: spec.Schedule{Fup: 7, Slots: []spec.Transmission{
			{Slot: 7, From: "c", To: "G", Source: "a"},
			{Slot: 3, From: "a", To: "b", Source: "a"},
			{Slot: 6, From: "b", To: "c", Source: "a"},
		}},
		Sources: []string{"a"},
	}
	cases = append(cases, goldenCase{"explicit 3-hop 7,3,6", chain, false})

	for i := 0; i < 64; i++ {
		g, err := gen.Generate(5, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"shortest-first", "longest-first"} {
			for channels := 1; channels <= 4; channels++ {
				s := *g.Spec
				s.Schedule.Policy = policy
				s.Schedule.Priority = nil
				s.Schedule.Channels = channels
				cases = append(cases, goldenCase{fmt.Sprintf("gen %d %s %d channels", i, policy, channels), &s, true})
			}
		}
	}
	return cases
}

// typicalRoute returns the typical network's uplink route from src to
// the gateway.
func typicalRoute(src string) []string {
	parent := map[string]string{
		"n1": "G", "n2": "G", "n3": "G", "n4": "n1", "n5": "n1",
		"n6": "n2", "n7": "n3", "n8": "n3", "n9": "n6", "n10": "n7",
	}
	route := []string{src}
	for n := src; n != "G"; {
		n = parent[n]
		route = append(route, n)
	}
	return route
}

// render writes the realized schedule of c: Fup, the eta notation and
// every field device's slots, one line each.
func render(t *testing.T, c goldenCase) string {
	t.Helper()
	built, err := c.spec.Build()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sched := built.Schedule
	var b strings.Builder
	fmt.Fprintf(&b, "fup %d\n%s\n", sched.Fup(), sched.Format(built.Net))
	for _, id := range built.Net.FieldDevices() {
		node, err := built.Net.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", node.Name, sched.SlotsForSource(id))
	}
	return b.String()
}

// TestScheduleGolden pins Fup, the eta notation and every field device's
// slots of each golden case's realized schedule. The table was recorded
// from the separate single-channel and multi-channel builders (commit
// f0d7133), so it holds the one builder to both at every channel count.
func TestScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases(t) {
		text := render(t, c)
		if c.digest {
			fmt.Fprintf(&b, "%s sha256 %x\n", c.name, sha256.Sum256([]byte(text)))
			continue
		}
		fmt.Fprintf(&b, "%s\n%s\n", c.name, text)
	}
	path := filepath.Join("testdata", "schedules.golden")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with UPDATE_GOLDEN=1)", path, err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) {
			t.Fatalf("line %d beyond the golden's %d lines: %s", i+1, len(wantLines), gotLines[i])
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, got %d", len(wantLines), len(gotLines))
	}
}
