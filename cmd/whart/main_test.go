package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTypical(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"n10 -> n7 -> n3 -> G", "overall mean delay", "421.4", "network utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunEmitSpec(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-emit-spec"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"shortest-first"`) {
		t.Errorf("emitted spec missing policy: %s", b.String())
	}
}

func TestRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	doc := `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G", "availability": 0.903}],
	  "schedule": {"policy": "shortest-first"},
	  "reportingInterval": 4
	}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-spec", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "n1 -> G") {
		t.Errorf("output missing route: %s", b.String())
	}
}

func TestRunDOT(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-dot", "n10"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "digraph") || !strings.Contains(b.String(), "Discard") {
		t.Errorf("DOT output malformed: %s", b.String())
	}
	if err := run([]string{"-typical", "-dot", "zzz"}, &b); err == nil {
		t.Error("unknown dot node should error")
	}
}

// TestRunDOTGolden pins the path DTMC rendering byte for byte: the paper's
// Fig. 4 path (3 hops in slots 3, 6, 7 of a 7-slot frame, Is = 1), the
// same path at Is = 2 with its two goal states (Fig. 5) and the typical
// network's 3-hop n10 path at Is = 4. State names, state order and edge
// order all show in the output.
func TestRunDOTGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-spec", filepath.Join("testdata", "fig4.json"), "-dot", "n3"}, "fig4.dot"},
		{[]string{"-spec", filepath.Join("testdata", "fig5.json"), "-dot", "n3"}, "fig5.dot"},
		{[]string{"-typical", "-dot", "n10"}, "typical-n10.dot"},
	} {
		var b strings.Builder
		if err := run(tc.args, &b); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%v: output differs from testdata/%s:\n%s", tc.args, tc.golden, b.String())
		}
	}
}

func TestRunJSON(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Fup   int `json:"fup"`
		Paths []struct {
			Source       string  `json:"source"`
			Reachability float64 `json:"reachability"`
		} `json:"paths"`
		OverallMeanDelayMS float64 `json:"overallMeanDelayMs"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Fup != 20 || len(doc.Paths) != 10 {
		t.Errorf("doc = fup %d, %d paths", doc.Fup, len(doc.Paths))
	}
	if doc.OverallMeanDelayMS < 230 || doc.OverallMeanDelayMS > 240 {
		t.Errorf("mean delay = %v", doc.OverallMeanDelayMS)
	}
	for _, p := range doc.Paths {
		if p.Reachability <= 0.98 {
			t.Errorf("path %s reachability %v", p.Source, p.Reachability)
		}
	}
}

func TestRunTopologyDOT(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-topology-dot"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "graph") || !strings.Contains(b.String(), "--") {
		t.Errorf("topology DOT malformed: %s", b.String())
	}
}

func TestRunSuggest(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-suggest", "0.05"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "n3-G") || !strings.Contains(out, "mean R gain") {
		t.Errorf("suggest output missing content: %s", out)
	}
	// The first data row must be the 4-path link n3-G.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "n3-G") {
		t.Errorf("top suggestion not n3-G: %q", lines[2])
	}
	if err := run([]string{"-typical", "-suggest", "2"}, &b); err == nil {
		t.Error("delta out of range should error")
	}
}

func TestRunOptimize(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-optimize"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "optimized") || !strings.Contains(out, "priority order:") {
		t.Errorf("optimize output malformed: %s", out)
	}
	if !strings.Contains(out, "421.4 ms -> optimized 317.9 ms") {
		t.Errorf("expected the eta_a -> eta_b-level improvement: %s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("no network should error")
	}
	if err := run([]string{"-typical", "-spec", "x.json"}, &b); err == nil {
		t.Error("both -typical and -spec should error")
	}
	if err := run([]string{"-spec", "/nonexistent.json"}, &b); err == nil {
		t.Error("missing spec file should error")
	}
}
