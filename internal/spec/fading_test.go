package spec

import (
	"math"
	"strings"
	"testing"

	"wirelesshart/internal/link"
)

// fadingDoc builds a minimal one-link spec around the given link JSON.
func fadingDoc(linkJSON string) string {
	return `{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [` + linkJSON + `],
	  "schedule": {"policy": "shortest-first"}}`
}

// TestFadingBlockValidation is the satellite-3 table: rejected transition
// rows that don't sum to 1, success probs outside [0,1], and conflicts
// with the scalar precedence-chain fields.
func TestFadingBlockValidation(t *testing.T) {
	tests := []struct {
		name    string
		link    string
		wantErr string
	}{
		{
			name: "valid k3",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
				"success": [0.1, 0.6, 0.99]}}`,
		},
		{
			name: "valid two-state embedding",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[0.9, 0.1], [0.9, 0.1]], "success": [1, 0]}}`,
		},
		{
			name: "row does not sum to one",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[0.9, 0.2], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: "sums to",
		},
		{
			name: "success prob above one",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1.5, 0]}}`,
			wantErr: "success probability",
		},
		{
			name: "success prob negative",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, -0.1]}}`,
			wantErr: "success probability",
		},
		{
			name: "negative transition",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[1.1, -0.1], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: "out of [0,1]",
		},
		{
			name: "dimension mismatch",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0, 0.5]}}`,
			wantErr: "transition rows",
		},
		{
			name: "reducible chain",
			link: `{"a": "n1", "b": "G", "fading": {
				"transitions": [[1, 0], [0, 1]], "success": [1, 0]}}`,
			wantErr: "stationary",
		},
		{
			name: "conflict with pfl",
			link: `{"a": "n1", "b": "G", "pfl": 0.1, "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: `conflicts with scalar field "pfl"`,
		},
		{
			name: "conflict with ber",
			link: `{"a": "n1", "b": "G", "ber": 1e-4, "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: `conflicts with scalar field "ber"`,
		},
		{
			name: "conflict with ebN0",
			link: `{"a": "n1", "b": "G", "ebN0": 10, "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: `conflicts with scalar field "ebN0"`,
		},
		{
			name: "conflict with availability",
			link: `{"a": "n1", "b": "G", "availability": 0.8, "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: `conflicts with scalar field "availability"`,
		},
		{
			name: "conflict with prc",
			link: `{"a": "n1", "b": "G", "prc": 0.8, "fading": {
				"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}`,
			wantErr: `conflicts with scalar field "prc"`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := Parse(strings.NewReader(fadingDoc(tt.link)))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = s.Build()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Build() error = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Build() error = %v, want containing %q", err, tt.wantErr)
			}
			// The resolution surface must agree with Build.
			if r := s.ResolveLinks(nil); r[0].Err == nil {
				t.Error("ResolveLinks accepted a link Build rejected")
			}
		})
	}
}

// TestFadingBuildWiresProcess checks that a built fading link reaches the
// analyzer as a k-state process and that its memoryless view carries the
// chain's stationary availability.
func TestFadingBuildWiresProcess(t *testing.T) {
	doc := fadingDoc(`{"a": "n1", "b": "G", "fading": {
		"transitions": [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
		"success": [0.1, 0.6, 0.99]}}`)
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	links := b.Net.Links()
	if len(links) != 1 {
		t.Fatalf("%d links, want 1", len(links))
	}
	p := b.Analyzer.LinkProcess(links[0].ID)
	if p.States() != 3 {
		t.Errorf("analyzer process States() = %d, want 3", p.States())
	}
	if d := math.Abs(link.MemorylessEquivalent(p).SteadyUp() - p.SteadyUp()); d > 1e-12 {
		t.Errorf("memoryless view steady availability diverges by %v", d)
	}
	if _, err := b.Analyzer.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
}

// TestFadingWindowFailure checks the no-relaxation Blocked semantics on a
// fading link: zero inside the window, stationary marginal outside.
func TestFadingWindowFailure(t *testing.T) {
	doc := fadingDoc(`{"a": "n1", "b": "G",
		"fading": {"transitions": [[0.9, 0.1], [0.3, 0.7]], "success": [0.95, 0.1]},
		"failure": {"kind": "window", "fromSlot": 2, "toSlot": 4}}`)
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Failures) != 1 {
		t.Fatalf("%d failures, want 1", len(b.Failures))
	}
	if _, err := b.Analyzer.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Round-trip: the resolved process still reports the chain, and its
	// memoryless two-state view keeps the chain's stationary availability.
	r := s.ResolveLinks(nil)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	p := r.Process()
	ks, ok := p.(*link.KState)
	if !ok {
		t.Fatalf("resolved process is %T, want *link.KState", p)
	}
	if ks.States() != 2 {
		t.Errorf("States() = %d, want 2", ks.States())
	}
	if d := math.Abs(link.MemorylessEquivalent(p).SteadyUp() - p.SteadyUp()); d > 1e-12 {
		t.Errorf("memoryless view steady availability diverges by %v", d)
	}
}
