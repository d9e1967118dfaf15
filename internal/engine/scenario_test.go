package engine

import (
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// mustKey fails the test on canonicalization errors.
func mustKey(t *testing.T, s *spec.Spec) string {
	t.Helper()
	k, err := Key(s)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

// typicalPFl is the failure probability equivalent to the default BER
// 2e-4 over 1016 bits: 1-(1-2e-4)^1016.
func typicalPFl(t *testing.T) float64 {
	t.Helper()
	p, err := (&spec.Spec{}).ResolveLinkProcess(spec.Link{A: "a", B: "b"})
	if err != nil {
		t.Fatal(err)
	}
	return link.MemorylessEquivalent(p).FailureProb()
}

func TestKeyCanonicalization(t *testing.T) {
	base := spec.TypicalSpec()
	baseKey := mustKey(t, base)

	f := func(x float64) *float64 { return &x }

	tests := []struct {
		name string
		spec func() *spec.Spec
		same bool
	}{
		{
			name: "identical spec",
			spec: spec.TypicalSpec,
			same: true,
		},
		{
			name: "link declaration order reversed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				for i, j := 0, len(s.Links)-1; i < j; i, j = i+1, j-1 {
					s.Links[i], s.Links[j] = s.Links[j], s.Links[i]
				}
				return s
			},
			same: true,
		},
		{
			name: "link endpoints swapped",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				for i := range s.Links {
					s.Links[i].A, s.Links[i].B = s.Links[i].B, s.Links[i].A
				}
				return s
			},
			same: true,
		},
		{
			name: "defaults spelled out",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.MessageBits = 1016
				s.Schedule.Channels = 1
				s.DefaultBER = f(2e-4)
				for i := range s.Nodes {
					if s.Nodes[i].Kind == "" {
						s.Nodes[i].Kind = "field-device"
					}
				}
				return s
			},
			same: true,
		},
		{
			name: "all sources listed explicitly in shuffled order",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Sources = []string{"n3", "n1", "n10", "n2", "n5", "n4", "n7", "n6", "n9", "n8"}
				return s
			},
			same: true,
		},
		{
			name: "BER replaced by the equivalent failure probability",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				pfl := typicalPFl(t)
				for i := range s.Links {
					s.Links[i].PFl = &pfl
				}
				return s
			},
			same: true,
		},
		{
			name: "one link BER changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Links[0].BER = f(1e-4)
				return s
			},
			same: false,
		},
		{
			name: "recovery probability changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Links[0].PRc = f(0.8)
				return s
			},
			same: false,
		},
		{
			name: "reporting interval changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.ReportingInterval = 8
				return s
			},
			same: false,
		},
		{
			name: "TTL changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.TTL = 40
				return s
			},
			same: false,
		},
		{
			name: "downlink frame changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Fdown = 7
				return s
			},
			same: false,
		},
		{
			name: "message bits changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.MessageBits = 512
				return s
			},
			same: false,
		},
		{
			name: "schedule policy changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.Policy = "longest-first"
				return s
			},
			same: false,
		},
		{
			name: "idle padding changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.ExtraIdle = 2
				return s
			},
			same: false,
		},
		{
			name: "channels changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.Channels = 2
				return s
			},
			same: false,
		},
		{
			name: "source subset restricted",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Sources = []string{"n1", "n10"}
				return s
			},
			same: false,
		},
		{
			name: "node declaration order changed",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				// Node ids break routing ties, so this is semantic.
				last := len(s.Nodes) - 1
				s.Nodes[1], s.Nodes[last] = s.Nodes[last], s.Nodes[1]
				return s
			},
			same: false,
		},
		{
			name: "permanent link failure injected",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Links[0].Failure = &spec.Failure{Kind: "permanent"}
				return s
			},
			same: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := mustKey(t, tt.spec())
			if tt.same && got != baseKey {
				t.Errorf("key %s differs from base %s, want identical", got[:12], baseKey[:12])
			}
			if !tt.same && got == baseKey {
				t.Errorf("key matches base, want a miss")
			}
		})
	}
}

func TestKeyFailureWindowParameters(t *testing.T) {
	window := func(from, to int) *spec.Spec {
		s := spec.TypicalSpec()
		s.Links[0].Failure = &spec.Failure{Kind: "window", FromSlot: from, ToSlot: to}
		return s
	}
	if mustKey(t, window(0, 20)) != mustKey(t, window(0, 20)) {
		t.Error("identical failure windows must hash identically")
	}
	if mustKey(t, window(0, 20)) == mustKey(t, window(0, 40)) {
		t.Error("different failure windows must miss")
	}
}

func TestKeyExplicitScheduleSlotOrder(t *testing.T) {
	explicit := func(reversed bool) *spec.Spec {
		s := &spec.Spec{
			Nodes: []spec.Node{
				{Name: "G", Kind: "gateway"}, {Name: "n1"}, {Name: "n2"}, {Name: "n3"},
			},
			Links: []spec.Link{{A: "n1", B: "G"}, {A: "n2", B: "n1"}, {A: "n3", B: "n2"}},
			Schedule: spec.Schedule{
				Fup: 7,
				Slots: []spec.Transmission{
					{Slot: 3, From: "n3", To: "n2", Source: "n3"},
					{Slot: 6, From: "n2", To: "n1", Source: "n3"},
					{Slot: 7, From: "n1", To: "G", Source: "n3"},
				},
			},
			Sources: []string{"n3"},
		}
		if reversed {
			s.Schedule.Slots[0], s.Schedule.Slots[2] = s.Schedule.Slots[2], s.Schedule.Slots[0]
		}
		return s
	}
	if mustKey(t, explicit(false)) != mustKey(t, explicit(true)) {
		t.Error("explicit schedule entry order must not change the key")
	}
}

func TestKeyRejectsInvalidScenarios(t *testing.T) {
	if _, err := Key(nil); err == nil {
		t.Error("nil scenario must fail")
	}
	s := spec.TypicalSpec()
	s.Links[0].BER = new(float64)
	*s.Links[0].BER = -1
	if _, err := Key(s); err == nil {
		t.Error("invalid BER must fail canonicalization")
	}
	s = spec.TypicalSpec()
	s.Links[0].Failure = &spec.Failure{Kind: "flaky"}
	if _, err := Key(s); err == nil {
		t.Error("unknown failure kind must fail canonicalization")
	}
}
