package engine

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

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
	r := (&spec.Spec{Links: []spec.Link{{A: "a", B: "b"}}}).ResolveLinks(nil)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return link.MemorylessEquivalent(r.Process()).FailureProb()
}

// networkAnswer is the status and body of a /v1/network request for s to
// a fresh engine.
func networkAnswer(t *testing.T, s *spec.Spec) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(map[string]any{"scenario": s})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewHandler(New(Config{}), 30*time.Second).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/network", bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// TestKeyCanonicalization: each row's spec keys like the typical network
// (or the row's own base) or misses it. A shared key is a promise that the
// two specs are one scenario, so a same row also requires that both specs
// build or both fail, that their base digests agree and that fresh engines
// answer both on /v1/network with the same status and bytes.
func TestKeyCanonicalization(t *testing.T) {
	f := func(x float64) *float64 { return &x }

	tests := []struct {
		name string
		base func() *spec.Spec // nil: the typical network
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
			name: "explicit schedule with its one channel spelled out",
			base: func() *spec.Spec { return explicitTypical(t) },
			spec: func() *spec.Spec {
				s := explicitTypical(t)
				s.Schedule.Channels = 1
				return s
			},
			same: true,
		},
		{
			name: "policy schedule with channels -1, which builds one channel",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.Channels = -1
				return s
			},
			same: true,
		},
		{
			name: "fup beside a policy, which the build ignores",
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.Fup = 40
				return s
			},
			same: true,
		},
		{
			name: "fup beside a priority order, which the build ignores",
			base: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.Policy = ""
				s.Schedule.Priority = []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10"}
				return s
			},
			spec: func() *spec.Spec {
				s := spec.TypicalSpec()
				s.Schedule.Policy = ""
				s.Schedule.Priority = []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10"}
				s.Schedule.Fup = 40
				return s
			},
			same: true,
		},
		{
			name: "extraIdle beside explicit slots, which the build ignores",
			base: func() *spec.Spec { return explicitTypical(t) },
			spec: func() *spec.Spec {
				s := explicitTypical(t)
				s.Schedule.ExtraIdle = 3
				return s
			},
			same: true,
		},
		{
			name: "explicit schedule with channels -1, which fails to build",
			base: func() *spec.Spec { return explicitTypical(t) },
			spec: func() *spec.Spec {
				s := explicitTypical(t)
				s.Schedule.Channels = -1
				return s
			},
			same: false,
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
			base, s := spec.TypicalSpec(), tt.spec()
			if tt.base != nil {
				base = tt.base()
			}
			baseKey, got := mustKey(t, base), mustKey(t, s)
			if !tt.same {
				if got == baseKey {
					t.Errorf("key matches base, want a miss")
				}
				return
			}
			if got != baseKey {
				t.Errorf("key %s differs from base %s, want identical", got[:12], baseKey[:12])
			}
			_, errBase := base.Build()
			_, err := s.Build()
			if (err == nil) != (errBase == nil) {
				t.Errorf("Build error %v, base's %v: one key, one outcome", err, errBase)
			}
			_, baseDigest, _ := keyAndBase(base)
			_, digest, _ := keyAndBase(s)
			if digest != baseDigest {
				t.Error("base digest differs from the base's")
			}
			wantCode, want := networkAnswer(t, base)
			if code, body := networkAnswer(t, s); code != wantCode || !bytes.Equal(body, want) {
				t.Errorf("/v1/network: status %d, %d bytes; base %d, %d bytes", code, len(body), wantCode, len(want))
			}
		})
	}
}

// cloneSpec deep-copies a spec through its JSON form.
func cloneSpec(t *testing.T, s *spec.Spec) *spec.Spec {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var c spec.Spec
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// withoutFailures is s with every link's failure cleared.
func withoutFailures(t *testing.T, s *spec.Spec) *spec.Spec {
	t.Helper()
	c := cloneSpec(t, s)
	for i := range c.Links {
		c.Links[i].Failure = nil
	}
	return c
}

// digestSpec sets every field of a spec, so that a change to any one of
// them can show in its key: link 0 declares every scalar physical field
// and a window failure, link 1 a fading block and a permanent failure, and
// link 2 takes the defaults. It keys but need not build.
func digestSpec() *spec.Spec {
	f := func(v float64) *float64 { return &v }
	return &spec.Spec{
		Nodes: []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a", Kind: "field-device"}, {Name: "b"}},
		Links: []spec.Link{
			{A: "a", B: "G", PFl: f(0.1), BER: f(2e-4), EbN0: f(7), Availability: f(0.8), PRc: f(0.9),
				Failure: &spec.Failure{Kind: "window", FromSlot: 1, ToSlot: 5}},
			{A: "b", B: "a", Fading: &spec.Fading{Transitions: [][]float64{{0.9, 0.1}, {0.2, 0.8}}, Success: []float64{0.95, 0.3}},
				Failure: &spec.Failure{Kind: "permanent"}},
			{A: "b", B: "G"},
		},
		Schedule: spec.Schedule{
			Fup: 7, Slots: []spec.Transmission{{Slot: 1, From: "a", To: "G", Source: "a"}},
			Policy: "shortest-first", ExtraIdle: 2, Priority: []string{"a"}, Channels: 2,
		},
		ReportingInterval: 4, TTL: 30, Fdown: 5, MessageBits: 512, DefaultBER: f(1e-4),
		Sources: []string{"a"},
	}
}

// fieldPaths lists the dotted path of every leaf field of a spec type,
// through structs, pointers to structs and slices of structs.
func fieldPaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := prefix + f.Name
		ft := f.Type
		if ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, fieldPaths(ft, path+".")...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// TestBaseDigest: the base digest of a spec is the key of the spec with
// its failures cleared, so a change to one field changes the digest
// exactly when it changes that key, and a change to a Failure alone keeps
// the digest while it changes the key. Every leaf field of the spec types
// has a row, so a field added later without one fails here.
func TestBaseDigest(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	fields := map[string]func(s *spec.Spec){
		"Nodes.Name":               func(s *spec.Spec) { s.Nodes[1].Name = "c" },
		"Nodes.Kind":               func(s *spec.Spec) { s.Nodes[1].Kind = "gateway" },
		"Links.A":                  func(s *spec.Spec) { s.Links[0].A = "G2" },
		"Links.B":                  func(s *spec.Spec) { s.Links[0].B = "G2" },
		"Links.PFl":                func(s *spec.Spec) { s.Links[0].PFl = f(0.2) },
		"Links.BER":                func(s *spec.Spec) { s.Links[0].PFl, s.Links[0].BER = nil, f(3e-4) },
		"Links.EbN0":               func(s *spec.Spec) { s.Links[0].PFl, s.Links[0].BER, s.Links[0].EbN0 = nil, nil, f(8) },
		"Links.Availability":       func(s *spec.Spec) { s.Links[0] = spec.Link{A: "a", B: "G", Availability: f(0.81)} },
		"Links.PRc":                func(s *spec.Spec) { s.Links[0].PRc = f(0.5) },
		"Links.Fading.Transitions": func(s *spec.Spec) { s.Links[1].Fading.Transitions[1] = []float64{0.3, 0.7} },
		"Links.Fading.Success":     func(s *spec.Spec) { s.Links[1].Fading.Success[1] = 0.4 },
		"Links.Failure.Kind":       func(s *spec.Spec) { s.Links[0].Failure.Kind = "permanent" },
		"Links.Failure.FromSlot":   func(s *spec.Spec) { s.Links[0].Failure.FromSlot = 2 },
		"Links.Failure.ToSlot":     func(s *spec.Spec) { s.Links[0].Failure.ToSlot = 9 },
		"Schedule.Fup":             func(s *spec.Spec) { s.Schedule.Fup = 8 },
		"Schedule.Slots.Slot":      func(s *spec.Spec) { s.Schedule.Slots[0].Slot = 2 },
		"Schedule.Slots.From":      func(s *spec.Spec) { s.Schedule.Slots[0].From = "b" },
		"Schedule.Slots.To":        func(s *spec.Spec) { s.Schedule.Slots[0].To = "b" },
		"Schedule.Slots.Source":    func(s *spec.Spec) { s.Schedule.Slots[0].Source = "b" },
		"Schedule.Policy":          func(s *spec.Spec) { s.Schedule.Policy = "longest-first" },
		"Schedule.ExtraIdle":       func(s *spec.Spec) { s.Schedule.ExtraIdle = 3 },
		"Schedule.Priority":        func(s *spec.Spec) { s.Schedule.Priority = append(s.Schedule.Priority, "G") },
		"Schedule.Channels":        func(s *spec.Spec) { s.Schedule.Channels = 3 },
		"ReportingInterval":        func(s *spec.Spec) { s.ReportingInterval = 2 },
		"TTL":                      func(s *spec.Spec) { s.TTL = 31 },
		"Fdown":                    func(s *spec.Spec) { s.Fdown = 6 },
		"MessageBits":              func(s *spec.Spec) { s.MessageBits = 1016 },
		"DefaultBER":               func(s *spec.Spec) { s.DefaultBER = f(3e-4) },
		"Sources":                  func(s *spec.Spec) { s.Sources = nil },
		"Links.Fading (dropped)":   func(s *spec.Spec) { s.Links[1].Fading = nil },
		"Links.Fading (one more state)": func(s *spec.Spec) {
			s.Links[1].Fading = &spec.Fading{
				Transitions: [][]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}},
				Success:     []float64{0.95, 0.3, 0.6},
			}
		},
		"Links.Failure (dropped)":    func(s *spec.Spec) { s.Links[0].Failure = nil },
		"Links.Failure (added)":      func(s *spec.Spec) { s.Links[2].Failure = &spec.Failure{Kind: "permanent"} },
		"Links (one more)":           func(s *spec.Spec) { s.Links = append(s.Links, spec.Link{A: "b", B: "G2"}) },
		"Links (order and spelling)": func(s *spec.Spec) { s.Links[0], s.Links[2] = spec.Link{A: "G", B: "b"}, s.Links[0] },
	}
	for _, path := range fieldPaths(reflect.TypeOf(spec.Spec{}), "") {
		if _, ok := fields[path]; !ok {
			t.Errorf("spec field %s has no digest row", path)
		}
	}
	base := digestSpec()
	baseKey, baseDigest, err := keyAndBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range fields {
		c := cloneSpec(t, base)
		edit(c)
		key, d, err := keyAndBase(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cleared := mustKey(t, withoutFailures(t, c))
		if hex.EncodeToString(d[:]) != cleared {
			t.Errorf("%s changed: base digest is not the key of the spec without failures", name)
		}
		if strings.HasPrefix(name, "Links.Failure") {
			if d != baseDigest || key == baseKey {
				t.Errorf("%s changed: digest kept %v, key kept %v; want the digest only", name, d == baseDigest, key == baseKey)
			}
			continue
		}
		if got, want := d != baseDigest, cleared != mustKey(t, withoutFailures(t, base)); got != want {
			t.Errorf("%s changed: digest changed %v, key without failures changed %v", name, got, want)
		}
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
