package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunTypicalSim(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-intervals", "500", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"simulated 500 reporting intervals", "R analytic", "network utilization", "reachability gap"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRoundTripMode(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-typical", "-intervals", "300", "-roundtrip"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"control loops", "loop analytic", "loop simulated", "n10"} {
		if !strings.Contains(out, want) {
			t.Errorf("roundtrip output missing %q", want)
		}
	}
}

func TestRunSimErrors(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("no network should error")
	}
	if err := run([]string{"-typical", "-spec", "x.json"}, &b); err == nil {
		t.Error("conflicting inputs should error")
	}
	if err := run([]string{"-spec", "/nope.json"}, &b); err == nil {
		t.Error("missing spec should error")
	}
	if err := run([]string{"-typical", "-intervals", "0"}, &b); err == nil {
		t.Error("zero intervals should error")
	}
}

// TestRunHonorsSpecTTL simulates a spec whose TTL cuts the reporting
// interval short: the simulator must expire messages at the same TTL the
// analysis uses, so the reachability gap stays within sampling noise.
func TestRunHonorsSpecTTL(t *testing.T) {
	doc := `{
	  "nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}, {"name": "n2"}, {"name": "n3"}],
	  "links": [
	    {"a": "n1", "b": "G", "availability": 0.7},
	    {"a": "n2", "b": "n1", "availability": 0.7},
	    {"a": "n3", "b": "n2", "availability": 0.7}
	  ],
	  "schedule": {"policy": "shortest-first", "extraIdle": 1},
	  "reportingInterval": 4,
	  "ttl": 8
	}`
	path := filepath.Join(t.TempDir(), "ttl.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-spec", path, "-intervals", "5000", "-seed", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	const prefix = "largest |analytic - simulated| reachability gap: "
	i := strings.Index(b.String(), prefix)
	if i < 0 {
		t.Fatalf("output has no reachability gap line:\n%s", b.String())
	}
	gap, err := strconv.ParseFloat(strings.TrimSpace(b.String()[i+len(prefix):]), 64)
	if err != nil {
		t.Fatal(err)
	}
	if gap > 0.03 {
		t.Errorf("reachability gap %v under a TTL of 8 slots, want sampling noise only:\n%s", gap, b.String())
	}
}
