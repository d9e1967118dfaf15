package wirelesshart

import (
	"testing"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/core"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// TestReferenceLinkDefinedOnce: a link declared without physical
// parameters gets the paper's reference model (BER channel.DefaultBER
// over a channel.DefaultMessageBits message, p_rc 0.9) through the facade,
// through a spec, and as core.New's fallback for a link no option names.
func TestReferenceLinkDefinedOnce(t *testing.T) {
	want, err := link.FromBER(channel.DefaultBER, channel.DefaultMessageBits, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}

	n := New()
	if err := n.Gateway("G"); err != nil {
		t.Fatal(err)
	}
	if err := n.Device("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Link("a", "G"); err != nil {
		t.Fatal(err)
	}
	b, err := n.build(nil)
	if err != nil {
		t.Fatal(err)
	}
	l := b.Net.Links()[0]
	if got := n.models[l.ID]; got != want {
		t.Errorf("facade default link = %+v, want %+v", got, want)
	}

	s := &spec.Spec{
		Nodes:    []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a"}},
		Links:    []spec.Link{{A: "a", B: "G"}},
		Schedule: spec.Schedule{Policy: "shortest-first"},
	}
	p, err := s.ResolveLinkProcess(s.Links[0])
	if err != nil {
		t.Fatal(err)
	}
	if p != link.Process(want) {
		t.Errorf("spec default link = %+v, want %+v", p, want)
	}
	built, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	sl := built.Net.Links()[0]
	if got := built.Analyzer.LinkProcess(sl.ID); got != link.Process(want) {
		t.Errorf("spec-built analyzer link = %+v, want %+v", got, want)
	}

	bare, err := core.New(built.Net, built.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if got := bare.LinkProcess(sl.ID); got != link.Process(want) {
		t.Errorf("core.New fallback link = %+v, want %+v", got, want)
	}
}
