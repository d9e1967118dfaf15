package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// The oracle: the canonical form as a struct that json.Marshal writes, the
// form Key hashed before its append writer. Field order is fixed by the
// struct; json.Marshal of a struct is deterministic.
type canonScenario struct {
	Nodes    []canonNode
	Links    []canonLink
	Schedule canonSchedule
	Is       int
	TTL      int
	Fdown    int
	Bits     int
	Sources  []string
}

type canonNode struct {
	Name, Kind string
}

type canonLink struct {
	A, B     string
	PFl, PRc float64
	Fading   string `json:",omitempty"`
	Failure  string
}

type canonSchedule struct {
	Policy    string
	Priority  []string
	ExtraIdle int
	Channels  int
	Fup       int
	Slots     []canonSlot
}

type canonSlot struct {
	Slot             int
	From, To, Source string
}

// oracleCanonical returns json.Marshal of s's canonScenario.
func oracleCanonical(s *spec.Spec) ([]byte, error) {
	c, err := oracleScenario(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// oracleScenario returns s's canonScenario. Its sorts are stable, which
// agrees with the unstable sorts it once used whenever no two links (or
// slots) tie — for every spec Build accepts.
func oracleScenario(s *spec.Spec) (*canonScenario, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: nil scenario")
	}
	c := &canonScenario{Is: s.ReportingInterval, TTL: s.TTL, Fdown: s.Fdown, Bits: s.Bits()}
	if c.Is == 0 {
		c.Is = 4
	}
	fieldDevices := []string{}
	for _, n := range s.Nodes {
		kind := n.Kind
		if kind == "" {
			kind = "field-device"
		}
		if kind == "field-device" {
			fieldDevices = append(fieldDevices, n.Name)
		}
		c.Nodes = append(c.Nodes, canonNode{Name: n.Name, Kind: kind})
	}
	for _, r := range s.ResolveLinks(nil) {
		if r.Err != nil {
			return nil, fmt.Errorf("engine: link %q-%q: %w", r.A, r.B, r.Err)
		}
		c.Links = append(c.Links, oracleLink(r.A, r.B, r.Process(), r.Failure))
	}
	sort.SliceStable(c.Links, func(i, j int) bool { return linkLess(c.Links[i], c.Links[j]) })
	sc := s.Schedule
	c.Schedule = canonSchedule{
		Policy:    sc.Policy,
		Priority:  append([]string(nil), sc.Priority...),
		ExtraIdle: sc.ExtraIdle,
		Channels:  sc.Channels,
		Fup:       sc.Fup,
	}
	if c.Schedule.Channels == 0 {
		c.Schedule.Channels = 1
	}
	for _, tr := range sc.Slots {
		c.Schedule.Slots = append(c.Schedule.Slots, canonSlot{Slot: tr.Slot, From: tr.From, To: tr.To, Source: tr.Source})
	}
	sort.SliceStable(c.Schedule.Slots, func(i, j int) bool {
		a, b := c.Schedule.Slots[i], c.Schedule.Slots[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		return a.Source < b.Source
	})
	c.Sources = append([]string(nil), s.Sources...)
	if len(c.Sources) == 0 {
		c.Sources = fieldDevices
	}
	sort.Strings(c.Sources)
	return c, nil
}

// oracleLink is the canonical entry of a link between a and b with
// process p and failure f (whose kind resolution has checked).
func oracleLink(a, b string, p link.Process, f *spec.Failure) canonLink {
	cl := canonLink{A: min(a, b), B: max(a, b)}
	if m, ok := p.(link.Model); ok {
		cl.PFl, cl.PRc = m.FailureProb(), m.RecoveryProb()
	} else {
		cl.Fading = string(p.AppendKey(nil))
	}
	if f != nil {
		switch f.Kind {
		case "permanent":
			cl.Failure = "permanent"
		case "window":
			cl.Failure = fmt.Sprintf("window:%d:%d", f.FromSlot, f.ToSlot)
		}
	}
	return cl
}

// linkLess orders canonical links by endpoints, then failure text.
func linkLess(a, b canonLink) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.Failure < b.Failure
}

// canonicalBytes returns the canonical form Key hashes, copied out of its
// pooled buffer.
func canonicalBytes(s *spec.Spec) ([]byte, error) {
	c := keyBufs.Get().(*keyBuf)
	defer c.release()
	_, b, err := c.canonicalize(s)
	return bytes.Clone(b), err
}

// keyAndBase returns the key of s and its base digest.
func keyAndBase(s *spec.Spec) (string, digest, error) {
	c := keyBufs.Get().(*keyBuf)
	defer c.release()
	_, key, base, err := c.keyAndBase(s)
	return key, base, err
}

// checkCanonical fails unless the append writer and the oracle agree on s:
// the same bytes, a key that hashes them and a base digest that hashes
// them with every failure written as "", or the same error text.
func checkCanonical(t *testing.T, name string, s *spec.Spec) {
	t.Helper()
	got, err := canonicalBytes(s)
	want, wantErr := oracleCanonical(s)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, want %v", name, err, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: canonical form\n%s\nwant\n%s", name, got, want)
		return
	}
	sum := sha256.Sum256(want)
	if k, err := Key(s); err != nil || k != hex.EncodeToString(sum[:]) {
		t.Errorf("%s: Key = %s, %v; want the hash of the canonical form", name, k, err)
	}
	c, err := oracleScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Links {
		c.Links[i].Failure = ""
	}
	cleared, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, base, err := keyAndBase(s); err != nil || base != sha256.Sum256(cleared) {
		t.Errorf("%s: base digest %x, %v; want the hash of the canonical form without failures", name, base, err)
	}
}

// checkKeyBuild fails unless the key and the build of s read one
// resolution of its links: Key fails exactly when a link does not resolve,
// with the first such link's error, and Build then fails too; when both
// succeed, every built link's process has the text the key wrote for that
// link (its fading encoding, or the two-state model of its p_fl and p_rc).
func checkKeyBuild(t *testing.T, name string, s *spec.Spec) {
	t.Helper()
	if s == nil {
		return
	}
	var wantErr error
	for _, r := range s.ResolveLinks(nil) {
		if r.Err != nil {
			wantErr = fmt.Errorf("engine: link %q-%q: %w", r.A, r.B, r.Err)
			break
		}
	}
	text, err := canonicalBytes(s)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s: key error %v, resolution's %v", name, err, wantErr)
		return
	}
	built, buildErr := s.Build()
	if err != nil {
		if buildErr == nil {
			t.Errorf("%s: Build accepted a scenario Key rejected (%v)", name, err)
		}
		return
	}
	if buildErr != nil {
		return
	}
	var c canonScenario
	if err := json.Unmarshal(text, &c); err != nil {
		t.Fatalf("%s: canonical form: %v", name, err)
	}
	// The key sorts links by their oriented endpoints, which are unique
	// in a built spec; link ids follow declaration order.
	ids := make([]int, len(s.Links))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(i, j int) bool {
		x, y := s.Links[ids[i]], s.Links[ids[j]]
		return linkLess(canonLink{A: min(x.A, x.B), B: max(x.A, x.B)}, canonLink{A: min(y.A, y.B), B: max(y.A, y.B)})
	})
	if len(c.Links) != len(ids) {
		t.Fatalf("%s: key wrote %d links, spec declares %d", name, len(c.Links), len(ids))
	}
	netLinks := built.Net.Links()
	for k, cl := range c.Links {
		want := cl.Fading
		if want == "" {
			m, err := link.New(cl.PFl, cl.PRc)
			if err != nil {
				t.Errorf("%s: link %s-%s: key wrote an invalid model: %v", name, cl.A, cl.B, err)
				continue
			}
			want = string(m.AppendKey(nil))
		}
		if got := string(built.Analyzer.LinkProcess(netLinks[ids[k]].ID).AppendKey(nil)); got != want {
			t.Errorf("%s: link %s-%s: built process %s, key wrote %s", name, cl.A, cl.B, got, want)
		}
	}
}

// TestKeyAgreesWithBuild runs checkKeyBuild over every key case (the
// typical network with links given by pfl, ber, ebN0, availability, a bare
// prc, defaultBer and messageBits, and fading blocks; and 64 generated
// networks, every fourth with fading links) and over scenarios some link
// of which does not resolve, whose key error texts it pins. A window the
// build rejects is no key error: the key checks failure kinds only.
func TestKeyAgreesWithBuild(t *testing.T) {
	for _, c := range keyCases(t) {
		checkKeyBuild(t, c.name, c.spec)
	}
	f := func(x float64) *float64 { return &x }
	for _, tt := range []struct {
		edit func(s *spec.Spec)
		want string
	}{
		{func(s *spec.Spec) { s.Links[4].BER = f(-1) },
			`engine: link "n5"-"n1": channel: BER -1 out of [0,1]`},
		{func(s *spec.Spec) { s.Links[2].PFl = f(1.5) },
			`engine: link "n3"-"G": link: failure probability 1.5 out of [0,1]`},
		{func(s *spec.Spec) { s.Links[0].PRc = f(0) },
			`engine: link "n1"-"G": link: recovery probability 0 out of (0,1]`},
		{func(s *spec.Spec) { s.Links[5].EbN0 = f(-3) },
			`engine: link "n6"-"n2": channel: Eb/N0 must be finite and non-negative: -3`},
		{func(s *spec.Spec) { s.Links[6].Availability = f(1.2) },
			`engine: link "n7"-"n3": link: availability 1.2 out of (0,1]`},
		{func(s *spec.Spec) { s.DefaultBER = f(2) },
			`engine: link "n1"-"G": channel: BER 2 out of [0,1]`},
		{func(s *spec.Spec) { s.MessageBits = -5 },
			`engine: link "n1"-"G": channel: message must have at least one bit, got -5`},
		{func(s *spec.Spec) { s.Links[1].Failure = &spec.Failure{Kind: "flaky"} },
			`engine: link "n2"-"G": unknown failure kind "flaky"`},
		{func(s *spec.Spec) { s.Links[1].Failure, s.Links[1].EbN0 = &spec.Failure{Kind: "flaky"}, f(-3) },
			`engine: link "n2"-"G": channel: Eb/N0 must be finite and non-negative: -3`},
		{func(s *spec.Spec) { s.Links[7].Failure, s.Links[8].BER = &spec.Failure{Kind: "flaky"}, f(2) },
			`engine: link "n8"-"n3": unknown failure kind "flaky"`},
		{func(s *spec.Spec) {
			s.Links[3].PRc = f(0.5)
			s.Links[3].Fading = &spec.Fading{Transitions: [][]float64{{1}}, Success: []float64{1}}
		}, `engine: link "n4"-"n1": fading block conflicts with scalar field "prc"`},
		{func(s *spec.Spec) {
			s.Links[3].Fading = &spec.Fading{Transitions: [][]float64{{0.5, 0.6}, {0.5, 0.5}}, Success: []float64{1, 0}}
		}, `engine: link "n4"-"n1": fading block: link: transition row 0 sums to 1.1, want 1`},
		{func(s *spec.Spec) { s.Links[9].Failure = &spec.Failure{Kind: "window", FromSlot: 9, ToSlot: 3} }, ""},
	} {
		s := spec.TypicalSpec()
		tt.edit(s)
		if _, err := Key(s); (err == nil) != (tt.want == "") || err != nil && err.Error() != tt.want {
			t.Errorf("Key error %v, want %q", err, tt.want)
		}
		checkKeyBuild(t, tt.want, s)
	}
}

// updateKeys regenerates testdata/keys.golden:
// UPDATE_GOLDEN=1 go test ./internal/engine -run TestKeyGolden
var updateKeys = os.Getenv("UPDATE_GOLDEN") != ""

// keyCase is one scenario whose cache key the golden list pins.
type keyCase struct {
	name string
	spec *spec.Spec
}

// parseSpec decodes a spec written as JSON, the form that keeps an
// explicit empty list apart from an absent one.
func parseSpec(t testing.TB, doc string) *spec.Spec {
	t.Helper()
	s, err := spec.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("parse %s: %v", doc, err)
	}
	return s
}

// keyCases lists the typical network under eta_a and eta_b, 64 generated
// networks, and every shape the canonical form writes differently: fading
// links, failures, explicit slots out of order, two channels, names that
// need escaping, a p_fl in exponent form, and empty lists spelled out.
func keyCases(t testing.TB) []keyCase {
	t.Helper()
	f := func(x float64) *float64 { return &x }
	typical := func(edit func(s *spec.Spec)) *spec.Spec {
		s := spec.TypicalSpec()
		edit(s)
		return s
	}
	cases := []keyCase{
		{"typical eta_a", spec.TypicalSpec()},
		{"typical eta_b", typical(func(s *spec.Spec) {
			s.Schedule.Policy = ""
			s.Schedule.Priority = []string{"n9", "n10", "n4", "n5", "n6", "n8", "n7", "n1", "n2", "n3"}
		})},
		{"typical 2 channels", typical(func(s *spec.Spec) { s.Schedule.Channels = 2 })},
		{"typical permanent failure", typical(func(s *spec.Spec) {
			s.Links[3].Failure = &spec.Failure{Kind: "permanent"}
		})},
		{"typical window failure", typical(func(s *spec.Spec) {
			s.Links[0].Failure = &spec.Failure{Kind: "window", FromSlot: 0, ToSlot: 20}
		})},
		{"typical window and permanent failures", typical(func(s *spec.Spec) {
			s.Links[9].Failure = &spec.Failure{Kind: "window", FromSlot: 10, ToSlot: 5}
			s.Links[8].Failure = &spec.Failure{Kind: "permanent"}
		})},
		{"typical fading links", typical(func(s *spec.Spec) {
			s.Links[2].Fading = &spec.Fading{
				Transitions: [][]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}},
				Success:     []float64{0.1, 0.6, 0.99},
			}
			s.Links[7].Fading = &spec.Fading{
				Transitions: [][]float64{{0.9, 0.1}, {0.4, 0.6}},
				Success:     []float64{1, 0},
			}
			s.Links[7].Failure = &spec.Failure{Kind: "window", FromSlot: 2, ToSlot: 9}
		})},
		{"typical p_fl in exponent form", typical(func(s *spec.Spec) {
			s.Links[0].PFl = f(1e-7)
			s.Links[1].PFl = f(9.5e-7)
			s.Links[2].PFl = f(1e-6)
			s.Links[3].PFl = f(0)
			s.Links[4].PFl = f(5e-324)
			s.Links[5].PFl = f(1)
			s.Links[6].PRc = f(1e-9)
			s.Links[7].PRc = f(1.5e-300)
		})},
		{"typical mixed physical fields", typical(func(s *spec.Spec) {
			s.Links[0].BER = f(1e-4)
			s.Links[1].EbN0 = f(7)
			s.Links[2].Availability = f(0.93)
			s.Links[3].PRc = f(0.8)
			s.MessageBits = 512
			s.DefaultBER = f(3e-4)
			s.TTL, s.Fdown, s.ReportingInterval = 40, 7, 8
			s.Schedule.ExtraIdle = 3
		})},
		{"typical sources listed", typical(func(s *spec.Spec) { s.Sources = []string{"n10", "n3", "n1"} })},
		{"typical longest-first", typical(func(s *spec.Spec) { s.Schedule.Policy = "longest-first" })},
	}

	// The typical network's eta_a written out slot by slot, last slot first.
	reversed := spec.TypicalSpec()
	reversed.Schedule = spec.Schedule{Fup: 20}
	parent := map[string]string{
		"n1": "G", "n2": "G", "n3": "G", "n4": "n1", "n5": "n1",
		"n6": "n2", "n7": "n3", "n8": "n3", "n9": "n6", "n10": "n7",
	}
	for i := 1; i <= 10; i++ {
		src := fmt.Sprintf("n%d", i)
		for n := src; n != "G"; n = parent[n] {
			reversed.Schedule.Slots = append(reversed.Schedule.Slots, spec.Transmission{From: n, To: parent[n], Source: src})
		}
	}
	for i := range reversed.Schedule.Slots {
		reversed.Schedule.Slots[i].Slot = len(reversed.Schedule.Slots) - i
	}
	cases = append(cases, keyCase{"explicit eta_a reversed", reversed})
	cases = append(cases, keyCase{"explicit 3-hop 7,3,6", &spec.Spec{
		Nodes: []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a"}, {Name: "b"}, {Name: "c"}},
		Links: []spec.Link{{A: "a", B: "b"}, {A: "b", B: "c"}, {A: "c", B: "G"}},
		Schedule: spec.Schedule{Fup: 7, Slots: []spec.Transmission{
			{Slot: 7, From: "c", To: "G", Source: "a"},
			{Slot: 3, From: "a", To: "b", Source: "a"},
			{Slot: 6, From: "b", To: "c", Source: "a"},
		}},
		Sources: []string{"a"},
	}})

	// Names that encoding/json escapes: HTML characters, quotes and
	// backslashes, control bytes, U+2028 and U+2029, non-ASCII text and
	// invalid UTF-8.
	names := []string{"G<gw>", "a&b", "né", "x\u2028y", "p\u2029q", "\xff\xfe", "q\"s\\", "t\tab\n\x01\x7f", "日本", "ok"}
	esc := &spec.Spec{
		Nodes:    []spec.Node{{Name: names[0], Kind: "gateway"}},
		Schedule: spec.Schedule{Priority: append([]string(nil), names[1:]...)},
	}
	for i, n := range names[1:] {
		esc.Nodes = append(esc.Nodes, spec.Node{Name: n})
		esc.Links = append(esc.Links, spec.Link{A: n, B: names[i]})
	}
	cases = append(cases, keyCase{"escaped names", esc})
	cases = append(cases, keyCase{"escaped node kind and sources", &spec.Spec{
		Nodes:   []spec.Node{{Name: "G", Kind: "gate<way>"}, {Name: "n1", Kind: "field-device"}, {Name: "\u00e9\xc3"}},
		Links:   []spec.Link{{A: "n1", B: "G"}, {A: "\u00e9\xc3", B: "n1"}},
		Sources: []string{"\u00e9\xc3", "n1"},
	}})

	// Empty and absent lists.
	cases = append(cases,
		keyCase{"zero spec", &spec.Spec{}},
		keyCase{"empty json", parseSpec(t, `{}`)},
		keyCase{"gateway only", parseSpec(t, `{"nodes": [{"name": "G", "kind": "gateway"}]}`)},
		keyCase{"explicit empty lists", parseSpec(t, `{"nodes": [], "links": [],
			"schedule": {"priority": [], "slots": []}, "sources": []}`)},
		keyCase{"typical explicit empty priority and sources", typical(func(s *spec.Spec) {
			s.Schedule.Priority = []string{}
			s.Sources = []string{}
		})},
	)

	for i := 0; i < 64; i++ {
		p := gen.DefaultParams()
		if i%4 == 3 {
			p.FadingProb = 0.3
		}
		g, err := gen.Generate(1, i, p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, keyCase{fmt.Sprintf("gen 1 %d", i), g.Spec})
	}
	return cases
}

// TestKeyGolden pins the cache key of every key case. The list was
// recorded from the json.Marshal canonicalization (commit fd5df6a):
// cluster ring ownership and snapshot files depend on the key text, so it
// must never drift.
func TestKeyGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range keyCases(t) {
		k, err := Key(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", k, c.name)
	}
	path := filepath.Join("testdata", "keys.golden")
	if updateKeys {
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

// TestKeyMatchesOracle compares the append writer with json.Marshal of
// the canonical struct on every key case and on the scenarios Key
// rejects, whose error texts must not change either.
func TestKeyMatchesOracle(t *testing.T) {
	for _, c := range keyCases(t) {
		checkCanonical(t, c.name, c.spec)
	}
	f := func(x float64) *float64 { return &x }
	bad := map[string]func(s *spec.Spec){
		"negative BER": func(s *spec.Spec) { s.Links[4].BER = f(-1) },
		"p_fl above 1": func(s *spec.Spec) { s.Links[2].PFl = f(1.5) },
		"zero p_rc":    func(s *spec.Spec) { s.Links[0].PRc = f(0) },
		"unknown failure kind": func(s *spec.Spec) {
			s.Links[1].Failure = &spec.Failure{Kind: "flaky"}
		},
		"resolution precedes the failure kind": func(s *spec.Spec) {
			s.Links[1].Failure = &spec.Failure{Kind: "flaky"}
			s.Links[1].EbN0 = f(-3)
		},
		"first failing link wins": func(s *spec.Spec) {
			s.Links[7].Failure = &spec.Failure{Kind: "flaky"}
			s.Links[8].BER = f(2)
		},
		"fading beside a scalar field": func(s *spec.Spec) {
			s.Links[3].PRc = f(0.5)
			s.Links[3].Fading = &spec.Fading{Transitions: [][]float64{{1}}, Success: []float64{1}}
		},
		"invalid fading block": func(s *spec.Spec) {
			s.Links[3].Fading = &spec.Fading{Transitions: [][]float64{{0.5, 0.6}, {0.5, 0.5}}, Success: []float64{1, 0}}
		},
	}
	for name, edit := range bad {
		s := spec.TypicalSpec()
		edit(s)
		if _, err := Key(s); err == nil {
			t.Errorf("%s: Key accepted the scenario", name)
		}
		checkCanonical(t, name, s)
	}
	checkCanonical(t, "nil scenario", nil)

	// Duplicate links tie on endpoints and failure: declaration order
	// breaks the tie, past the 12 elements a sort handles by insertion.
	dup := spec.TypicalSpec()
	for i := 0; i < 8; i++ {
		dup.Links = append(dup.Links, spec.Link{A: "n1", B: "G", PFl: f(float64(i) / 10)})
	}
	checkCanonical(t, "duplicate links", dup)
	slots := parseSpec(t, `{"schedule": {"fup": 3, "slots": [
		{"slot": 2, "from": "b", "to": "G", "source": "a"}, {"slot": 1, "from": "x", "to": "y", "source": "a"},
		{"slot": 1, "from": "a", "to": "b", "source": "a"}, {"slot": 1, "from": "c", "to": "G", "source": "c"}]}}`)
	checkCanonical(t, "tied slots", slots)
}

// keySeedDocs are FuzzKey's seed specs: FuzzParseBuild's, plus names that
// need escaping and a p_fl written in exponent form.
var keySeedDocs = []string{
	`{}`,
	`{"nodes": []}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G"}],
	  "schedule": {"policy": "shortest-first"}}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G", "ber": 1e-4, "failure": {"kind": "window", "fromSlot": 1, "toSlot": 5}}],
	  "schedule": {"fup": 5, "slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"}]},
	  "reportingInterval": 2, "ttl": 5, "fdown": 3}`,
	`{"nodes": [{"name": "a"}], "links": [{"a": "a", "b": "a"}]}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}], "schedule": {"policy": "zzz"}}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G",
	    "fading": {"transitions": [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
	               "success": [0.1, 0.6, 0.99]}}],
	  "schedule": {"policy": "shortest-first"}}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G",
	    "fading": {"transitions": [[0.9, 0.2], [0.4, 0.6]], "success": [1, 0]}}],
	  "schedule": {"policy": "shortest-first"}}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G", "ber": 1e-4,
	    "fading": {"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}],
	  "schedule": {"policy": "shortest-first"}}`,
	`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}],
	  "links": [{"a": "n1", "b": "G",
	    "fading": {"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, -0.5]},
	    "failure": {"kind": "window", "fromSlot": 1, "toSlot": 5}}],
	  "schedule": {"policy": "shortest-first"}}`,
	`{"nodes": [{"name": "G<&>", "kind": "gateway"}, {"name": "n\u2028\u00e9"}, {"name": "\t\"x"}],
	  "links": [{"a": "n\u2028\u00e9", "b": "G<&>", "pfl": 1e-7, "prc": 0.25},
	            {"a": "\t\"x", "b": "n\u2028\u00e9", "failure": {"kind": "permanent"}}],
	  "schedule": {"priority": ["\t\"x", "n\u2028\u00e9"], "channels": 2}, "sources": []}`,
}

// FuzzKey asserts that the append writer and the oracle agree, byte for
// byte or error for error, and that key and build agree (checkKeyBuild),
// on every spec Parse accepts, starting from keySeedDocs.
func FuzzKey(f *testing.F) {
	for _, s := range keySeedDocs {
		f.Add(s)
	}
	// Links given by each physical field in turn under a non-default BER
	// and message length.
	f.Add(`{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}, {"name": "n2"}, {"name": "n3"}, {"name": "n4"}, {"name": "n5"}],
	  "links": [{"a": "n1", "b": "G", "pfl": 0.2, "prc": 0.7}, {"a": "n2", "b": "G", "ebN0": 6},
	            {"a": "n3", "b": "n1", "availability": 0.93}, {"a": "n4", "b": "n2", "prc": 0.8},
	            {"a": "n5", "b": "n3", "fading": {"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0]}}],
	  "schedule": {"policy": "shortest-first"}, "defaultBer": 3e-4, "messageBits": 512}`)
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := spec.Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		checkCanonical(t, doc, s)
		checkKeyBuild(t, doc, s)
	})
}

// BenchmarkKey keys the typical network and, one per op in turn, the
// 128-network hot set of a read-heavy server: the typical network and
// 127 generated ones of 20 to 40 field devices.
func BenchmarkKey(b *testing.B) {
	hot := []*spec.Spec{spec.TypicalSpec()}
	for i := 0; len(hot) < 128; i++ {
		p := gen.DefaultParams()
		p.NodesMin += i % (p.NodesMax - p.NodesMin + 1)
		p.NodesMax = p.NodesMin
		g, err := gen.Generate(2, i, p)
		if err != nil {
			b.Fatal(err)
		}
		hot = append(hot, g.Spec)
	}
	for _, bc := range []struct {
		name  string
		specs []*spec.Spec
	}{{"typical", hot[:1]}, {"hot128", hot}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Key(bc.specs[i%len(bc.specs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
