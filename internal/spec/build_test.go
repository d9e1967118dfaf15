package spec_test

import (
	"testing"

	"wirelesshart/internal/des"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// TestBuiltLinkProcessesResolveFromSpec: every declared link of a built
// spec carries the process ResolveLinks gives it (a two-state one its
// Model by value and no KState, a fading one its KState and the zero
// Model), on the typical network under a non-default BER and message
// length and on 16 generated networks (fading and failure-injected links
// included). A link that fell back to core's own default would show the
// paper's BER instead of DefaultBER.
func TestBuiltLinkProcessesResolveFromSpec(t *testing.T) {
	typical := spec.TypicalSpec()
	ber := 5e-4
	typical.DefaultBER = &ber
	typical.MessageBits = 512
	specs := []*spec.Spec{typical}
	p := gen.DefaultParams()
	p.FadingProb = 0.3
	for i := 0; i < 16; i++ {
		g, err := gen.Generate(11, i, p)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, g.Spec)
	}
	for i, s := range specs {
		b, err := s.Build()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		resolved := s.ResolveLinks(nil)
		if len(resolved) != len(s.Links) {
			t.Fatalf("spec %d: %d resolved links for %d declared", i, len(resolved), len(s.Links))
		}
		for j, l := range s.Links {
			r := resolved[j]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.A != l.A || r.B != l.B || r.Failure != l.Failure {
				t.Errorf("spec %d link %d: resolved %s-%s (failure %v), declared %s-%s (failure %v)",
					i, j, r.A, r.B, r.Failure, l.A, l.B, l.Failure)
			}
			want := r.Process()
			a, _ := b.Net.NodeByName(l.A)
			c, _ := b.Net.NodeByName(l.B)
			lnk, ok := b.Net.LinkBetween(a.ID, c.ID)
			if !ok {
				t.Fatalf("spec %d: link %s-%s not built", i, l.A, l.B)
			}
			got := b.Analyzer.LinkProcess(lnk.ID)
			if string(got.AppendKey(nil)) != string(want.AppendKey(nil)) {
				t.Errorf("spec %d link %s-%s: analyzer process %s, want %s",
					i, l.A, l.B, got.AppendKey(nil), want.AppendKey(nil))
			}
			// A two-state link is its Model, unboxed; a fading one has
			// only its KState.
			switch {
			case l.Fading != nil && (r.KState == nil || r.Model != link.Model{}):
				t.Errorf("spec %d link %s-%s: fading link resolved to model %v, k-state %v", i, l.A, l.B, r.Model, r.KState)
			case l.Fading == nil && (r.KState != nil || link.Process(r.Model) != got):
				t.Errorf("spec %d link %s-%s: model %v, k-state %v; analyzer has %v", i, l.A, l.B, r.Model, r.KState, got)
			}
		}
	}
}

// TestFailureForcedWindow: a window failure forces its own slots down, a
// permanent one every slot.
func TestFailureForcedWindow(t *testing.T) {
	if from, to := (spec.Failure{Kind: "window", FromSlot: 3, ToSlot: 9}).ForcedWindow(); from != 3 || to != 9 {
		t.Errorf("window failure forces [%d, %d), want [3, 9)", from, to)
	}
	if from, to := (spec.Failure{Kind: "permanent"}).ForcedWindow(); from > 1 || to < 1<<20 {
		t.Errorf("permanent failure forces [%d, %d), want every slot", from, to)
	}

	// SimLinks forces exactly the failed links down over their windows.
	s := spec.TypicalSpec()
	s.Links[2].Failure = &spec.Failure{Kind: "window", FromSlot: 3, ToSlot: 9}
	s.Links[6].Failure = &spec.Failure{Kind: "permanent"}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	links := b.SimLinks()
	if len(links) != b.Net.NumLinks() || len(b.Failures) != 2 {
		t.Fatalf("SimLinks has %d links and the build %d failures, want %d and 2", len(links), len(b.Failures), b.Net.NumLinks())
	}
	for _, l := range b.Net.Links() {
		forced, isForced := links[l.ID].(*des.ForcedWindowProcess)
		f, failed := b.Failures[l.ID]
		if isForced != failed {
			t.Errorf("link %d: forced %v, declared failure %v", l.ID, isForced, failed)
			continue
		}
		if failed {
			if from, to := f.ForcedWindow(); forced.From != from || forced.To != to {
				t.Errorf("link %d forced down over [%d, %d), want [%d, %d)", l.ID, forced.From, forced.To, from, to)
			}
		}
	}
}

// BenchmarkSpecBuild times the realization of a spec — topology, link
// processes, schedule and analyzer validation — for the paper's typical
// network under eta_a, the same at two channels, an explicit-slot 3-hop
// chain and a generated network with a window failure.
func BenchmarkSpecBuild(b *testing.B) {
	twoChannels := spec.TypicalSpec()
	twoChannels.Schedule.Channels = 2
	g, err := gen.Generate(1, 0, gen.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	failed := *g.Spec
	failed.Links = append([]spec.Link(nil), g.Spec.Links...)
	failed.Links[0].Failure = &spec.Failure{Kind: "window", FromSlot: 1, ToSlot: 11}
	cases := []struct {
		name string
		spec *spec.Spec
	}{
		{"typical-eta-a", spec.TypicalSpec()},
		{"typical-2ch", twoChannels},
		{"explicit-3hop", &spec.Spec{
			Nodes: []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a"}, {Name: "b"}, {Name: "c"}},
			Links: []spec.Link{{A: "a", B: "b"}, {A: "b", B: "c"}, {A: "c", B: "G"}},
			Schedule: spec.Schedule{Fup: 7, Slots: []spec.Transmission{
				{Slot: 3, From: "a", To: "b", Source: "a"},
				{Slot: 6, From: "b", To: "c", Source: "a"},
				{Slot: 7, From: "c", To: "G", Source: "a"},
			}},
			Sources: []string{"a"},
		}},
		{"gen-window-failure", &failed},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.spec.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
