package spec

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wirelesshart/internal/link"
)

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown field should error")
	}
	if _, err := Parse(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON should error")
	}
}

// TestParseRejectsTrailingData checks that a document is exactly one JSON
// value: a second value or garbage after it is an error, while trailing
// whitespace (json.Encoder's newline) is accepted.
func TestParseRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{
		`{"messageBits":1016} {"messageBits":8}`,
		`{"messageBits":1016} garbage`,
		`{"messageBits":1016}]`,
	} {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q) accepted trailing data", doc)
		}
	}
	s, err := Parse(strings.NewReader("{\"messageBits\":1016}\n \t\n"))
	if err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	if s.MessageBits != 1016 {
		t.Errorf("MessageBits = %d, want 1016", s.MessageBits)
	}
}

func TestParseMinimal(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G", "availability": 0.903}],
	  "schedule": {"fup": 5, "slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"}]},
	  "reportingInterval": 4
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Net.NumNodes() != 2 || b.Net.NumLinks() != 1 {
		t.Errorf("network %d nodes / %d links", b.Net.NumNodes(), b.Net.NumLinks())
	}
	pa, err := b.Analyzer.AnalyzePath(b.Analyzer.Sources()[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa.Reachability-0.99909) > 1e-3 {
		t.Errorf("R = %v, want ~0.99909", pa.Reachability)
	}
}

func TestBuildValidation(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{name: "no nodes", doc: `{"nodes": []}`},
		{name: "unknown kind", doc: `{"nodes": [{"name": "x", "kind": "router"}]}`},
		{name: "unknown link endpoint", doc: `{
			"nodes": [{"name": "G", "kind": "gateway"}],
			"links": [{"a": "G", "b": "zzz"}]}`},
		{name: "policy and slots", doc: `{
			"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
			"links": [{"a": "n1", "b": "G"}],
			"schedule": {"policy": "shortest-first", "fup": 5,
			  "slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"}]}}`},
		{name: "unknown policy", doc: `{
			"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
			"links": [{"a": "n1", "b": "G"}],
			"schedule": {"policy": "random"}}`},
		{name: "explicit schedule without fup", doc: `{
			"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
			"links": [{"a": "n1", "b": "G"}],
			"schedule": {"slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"}]}}`},
		{name: "schedule entry unknown node", doc: `{
			"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
			"links": [{"a": "n1", "b": "G"}],
			"schedule": {"fup": 5, "slots": [{"slot": 1, "from": "zz", "to": "G", "source": "n1"}]}}`},
		{name: "bad link pfl", doc: `{
			"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
			"links": [{"a": "n1", "b": "G", "pfl": 1.5}],
			"schedule": {"policy": "shortest-first"}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := Parse(strings.NewReader(tt.doc))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := s.Build(); err == nil {
				t.Error("Build should reject invalid spec")
			}
		})
	}
}

func TestLinkModelPriority(t *testing.T) {
	// PFl wins over BER, BER over EbN0, EbN0 over availability.
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"},
	            {"name": "n1"}, {"name": "n2"}, {"name": "n3"}, {"name": "n4"}],
	  "links": [
	    {"a": "n1", "b": "G", "pfl": 0.111, "ber": 1e-4},
	    {"a": "n2", "b": "G", "ber": 1e-4, "ebN0": 7},
	    {"a": "n3", "b": "G", "ebN0": 7, "availability": 0.5},
	    {"a": "n4", "b": "G", "availability": 0.903}
	  ],
	  "schedule": {"policy": "shortest-first"}
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.111, 0.0966, 0.089, 0.9 * (1 - 0.903) / 0.903}
	for i, l := range b.Net.Links() {
		m := link.MemorylessEquivalent(b.Analyzer.LinkProcess(l.ID))
		if math.Abs(m.FailureProb()-want[i]) > 5e-4 {
			t.Errorf("link %d p_fl = %v, want ~%v", i, m.FailureProb(), want[i])
		}
	}
}

func TestTypicalSpecMatchesTypicalNetwork(t *testing.T) {
	s := TypicalSpec()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Net.NumNodes() != 11 || b.Net.NumLinks() != 10 {
		t.Fatalf("typical network %d nodes / %d links", b.Net.NumNodes(), b.Net.NumLinks())
	}
	if b.Schedule.Fup() != 20 {
		t.Errorf("Fup = %d, want 20", b.Schedule.Fup())
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(na.OverallMeanDelayMS-235) > 1.5 {
		t.Errorf("E[Gamma] = %v, want ~235", na.OverallMeanDelayMS)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := TypicalSpec().Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Nodes) != 11 || len(loaded.Links) != 10 {
		t.Errorf("round trip lost data: %d nodes / %d links", len(loaded.Nodes), len(loaded.Links))
	}
	if _, err := loaded.Build(); err != nil {
		t.Errorf("round-tripped spec fails to build: %v", err)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestFailureInjection(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}, {"name": "n2"}],
	  "links": [
	    {"a": "n1", "b": "G", "availability": 0.83,
	     "failure": {"kind": "window", "fromSlot": 1, "toSlot": 21}},
	    {"a": "n2", "b": "G", "availability": 0.83,
	     "failure": {"kind": "permanent"}}
	  ],
	  "schedule": {"policy": "shortest-first", "extraIdle": 18},
	  "reportingInterval": 4
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, pa := range na.Paths {
		node, err := b.Net.Node(pa.Source)
		if err != nil {
			t.Fatal(err)
		}
		byName[node.Name] = pa.Reachability
	}
	// n1's link is down for the whole first cycle (Fup = 20). The slot-21
	// retry sees the fresh-recovery availability p_rc = 0.9 (which
	// overshoots the steady 0.83), later retries steady state:
	// R = 0.9 + 0.1*0.8304 + 0.1*0.1696*0.8304 = 0.9971.
	if math.Abs(byName["n1"]-0.9971) > 0.001 {
		t.Errorf("windowed failure R = %v, want ~0.9971", byName["n1"])
	}
	if byName["n2"] != 0 {
		t.Errorf("permanent failure R = %v, want 0", byName["n2"])
	}
}

func TestFailureInjectionValidation(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G", "failure": {"kind": "meteor"}}],
	  "schedule": {"policy": "shortest-first"}
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Error("unknown failure kind should error")
	}
}

func TestMultiChannelAndSources(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"},
	            {"name": "n1"}, {"name": "n2"}, {"name": "relay"}],
	  "links": [{"a": "n1", "b": "G"}, {"a": "n2", "b": "G"}, {"a": "relay", "b": "n1"}],
	  "schedule": {"policy": "shortest-first", "channels": 2},
	  "sources": ["n1", "n2", "relay"]
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 4 transmissions over 2 channels with the gateway as common
	// receiver: 3 slots.
	if b.Schedule.Fup() != 3 {
		t.Errorf("Fup = %d, want 3", b.Schedule.Fup())
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(na.Paths) != 3 {
		t.Errorf("paths = %d, want 3", len(na.Paths))
	}
}

func TestSpecSourcesValidation(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G"}],
	  "schedule": {"policy": "shortest-first"},
	  "sources": ["zzz"]
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Error("unknown reporting source should error")
	}
}

func TestSpecPriorityOrder(t *testing.T) {
	// The paper's eta_b via an explicit priority list.
	s := TypicalSpec()
	s.Schedule.Policy = ""
	s.Schedule.Priority = []string{"n9", "n10", "n4", "n5", "n6", "n8", "n7", "n1", "n2", "n3"}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	na, err := b.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(na.OverallMeanDelayMS-272.4) > 1 {
		t.Errorf("eta_b E[Gamma] = %v, want ~272.4", na.OverallMeanDelayMS)
	}
}

func TestSpecPriorityValidation(t *testing.T) {
	s := TypicalSpec()
	s.Schedule.Priority = []string{"n1"}
	if _, err := s.Build(); err == nil {
		t.Error("policy plus priority should error")
	}
	s.Schedule.Policy = ""
	if _, err := s.Build(); err == nil {
		t.Error("incomplete priority should error")
	}
	s.Schedule.Priority = []string{"zzz"}
	if _, err := s.Build(); err == nil {
		t.Error("unknown priority node should error")
	}
}

func TestSpecChannelsRequirePolicy(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G"}],
	  "schedule": {"fup": 5, "channels": 2,
	    "slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"}]}
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Error("channels with explicit slots should error")
	}
	// One channel is the default, which an explicit schedule may spell out.
	for _, ch := range []int{1, -1} {
		s.Schedule.Channels = ch
		if _, err := s.Build(); (err == nil) != (ch == 1) {
			t.Errorf("channels %d with explicit slots: Build error %v", ch, err)
		}
	}
}

func TestTTLAndFdownPassThrough(t *testing.T) {
	const doc = `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G", "availability": 0.903}],
	  "schedule": {"fup": 5, "slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"}]},
	  "reportingInterval": 4,
	  "ttl": 5,
	  "fdown": 3
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Analyzer.Fdown() != 3 {
		t.Errorf("Fdown = %d, want 3", b.Analyzer.Fdown())
	}
	pa, err := b.Analyzer.AnalyzePath(b.Analyzer.Sources()[0])
	if err != nil {
		t.Fatal(err)
	}
	// TTL = 5 keeps only the first cycle.
	if math.Abs(pa.Reachability-0.903) > 1e-9 {
		t.Errorf("TTL-limited R = %v, want 0.903", pa.Reachability)
	}
}

// TestBuildErrorOrder: a spec with several faults reports the one a single
// pass over it meets first. A link's failure is checked with its link,
// before later links and the schedule, although the failure overlay runs
// after the base build.
func TestBuildErrorOrder(t *testing.T) {
	const failure = `spec: link "n1"-"G": link: invalid failure window [9,3)`
	for _, tt := range []struct {
		name, links, schedule, want string
	}{
		{"failure before an unknown endpoint",
			`{"a": "n1", "b": "G", "failure": {"kind": "window", "fromSlot": 9, "toSlot": 3}}, {"a": "n2", "b": "zz"}`,
			`{"policy": "shortest-first"}`, failure},
		{"failure before a bad schedule",
			`{"a": "n1", "b": "G", "failure": {"kind": "window", "fromSlot": 9, "toSlot": 3}}, {"a": "n2", "b": "G"}`,
			`{"policy": "random"}`, failure},
		{"bad link before a later failure",
			`{"a": "n1", "b": "G", "pfl": 1.5}, {"a": "n2", "b": "G", "failure": {"kind": "meteor"}}`,
			`{"policy": "shortest-first"}`, `spec: link "n1"-"G": link: failure probability 1.5 out of [0,1]`},
	} {
		t.Run(tt.name, func(t *testing.T) {
			doc := `{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}, {"name": "n2"}],
				"links": [` + tt.links + `], "schedule": ` + tt.schedule + `}`
			s, err := Parse(strings.NewReader(doc))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := s.Build(); err == nil || err.Error() != tt.want {
				t.Errorf("Build error %v, want %q", err, tt.want)
			}
		})
	}
}
