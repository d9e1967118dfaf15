package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig6", "tab2", "xval", "ctrl"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunSelected(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-run", "fig6, fig10"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "=== fig6") || !strings.Contains(out, "=== fig10") {
		t.Errorf("selected runs missing: %s", out)
	}
	if !strings.Contains(out, "paper=0.42190") {
		t.Error("fig6 comparison missing")
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-csv", dir}, &b); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Fatalf("CSV files = %d, want 12", len(entries))
	}
	// Spot-check fig8: header plus five availability rows, reachability
	// increasing down the column.
	data, err := os.ReadFile(filepath.Join(dir, "fig8_reachability_vs_availability.csv"))
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(string(data)))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("fig8 rows = %d, want 6", len(rows))
	}
	if rows[0][2] != "reachability" {
		t.Errorf("header = %v", rows[0])
	}
	prev := 0.0
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Error("fig8 reachability column should increase")
		}
		prev = v
	}
	// Fig. 6 trajectories: 29 ages plus header.
	data6, err := os.ReadFile(filepath.Join(dir, "fig6_goal_trajectories.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data6), "\n")
	if lines != 30 {
		t.Errorf("fig6 lines = %d, want 30 (header + ages 0..28)", lines)
	}
}

// TestRunAllGolden pins the reproduction's deliverable byte for byte:
// every experiment's report from one -all run against testdata/all.golden,
// and every figure's -csv series against testdata/csv. Any change to the
// numbers behind a paper figure, table or extension shows up here.
func TestRunAllGolden(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-all"}, &b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("-all output differs from testdata/all.golden:\n%s", b.String())
	}

	dir := t.TempDir()
	if err := run([]string{"-csv", dir}, &b); err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "csv", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) != len(entries) {
		t.Fatalf("-csv wrote %d files, testdata/csv holds %d", len(entries), len(goldens))
	}
	for _, g := range goldens {
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(g)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from %s:\n%s", filepath.Base(g), g, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("no action should error")
	}
	if err := run([]string{"-run", "nope"}, &b); err == nil {
		t.Error("unknown id should error")
	}
}
