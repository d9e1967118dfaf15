package spec_test

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wirelesshart/internal/core"
	"wirelesshart/internal/des"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

// fullSpec sets every field of a spec, so that changing any one of them
// is visible to SameBase. It need not build.
func fullSpec() *spec.Spec {
	f := func(v float64) *float64 { return &v }
	return &spec.Spec{
		Nodes: []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a", Kind: "field-device"}},
		Links: []spec.Link{{
			A: "a", B: "G", PFl: f(0.1), BER: f(2e-4), EbN0: f(7), Availability: f(0.8), PRc: f(0.9),
			Fading:  &spec.Fading{Transitions: [][]float64{{0.9, 0.1}, {0.2, 0.8}}, Success: []float64{0.95, 0.3}},
			Failure: &spec.Failure{Kind: "window", FromSlot: 1, ToSlot: 5},
		}},
		Schedule: spec.Schedule{
			Fup: 7, Slots: []spec.Transmission{{Slot: 1, From: "a", To: "G", Source: "a"}},
			Policy: "shortest-first", ExtraIdle: 2, Priority: []string{"a"}, Channels: 2,
		},
		ReportingInterval: 4, TTL: 30, Fdown: 5, MessageBits: 512, DefaultBER: f(1e-4),
		Sources: []string{"a"},
	}
}

// clone deep-copies a spec through its JSON form.
func clone(t *testing.T, s *spec.Spec) *spec.Spec {
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

// TestSameBase: each field of a spec but a link's Failure, changed on its
// own, makes a different base; a Failure-only change keeps it. Every leaf
// field of the spec types has a row, so a field added later without a
// comparison fails here.
func TestSameBase(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	fields := map[string]func(s *spec.Spec){
		"Nodes.Name":                             func(s *spec.Spec) { s.Nodes[1].Name = "b" },
		"Nodes.Kind":                             func(s *spec.Spec) { s.Nodes[1].Kind = "" },
		"Links.A":                                func(s *spec.Spec) { s.Links[0].A = "G2" },
		"Links.B":                                func(s *spec.Spec) { s.Links[0].B = "G2" },
		"Links.PFl":                              func(s *spec.Spec) { s.Links[0].PFl = f(0.2) },
		"Links.BER":                              func(s *spec.Spec) { s.Links[0].BER = nil },
		"Links.EbN0":                             func(s *spec.Spec) { s.Links[0].EbN0 = f(8) },
		"Links.Availability":                     func(s *spec.Spec) { s.Links[0].Availability = f(0.81) },
		"Links.PRc":                              func(s *spec.Spec) { s.Links[0].PRc = f(0.5) },
		"Links.Fading.Transitions":               func(s *spec.Spec) { s.Links[0].Fading.Transitions[1][0] = 0.3 },
		"Links.Fading.Success":                   func(s *spec.Spec) { s.Links[0].Fading.Success[1] = 0.4 },
		"Links.Failure.Kind":                     func(s *spec.Spec) { s.Links[0].Failure.Kind = "permanent" },
		"Links.Failure.FromSlot":                 func(s *spec.Spec) { s.Links[0].Failure.FromSlot = 2 },
		"Links.Failure.ToSlot":                   func(s *spec.Spec) { s.Links[0].Failure.ToSlot = 9 },
		"Schedule.Fup":                           func(s *spec.Spec) { s.Schedule.Fup = 8 },
		"Schedule.Slots.Slot":                    func(s *spec.Spec) { s.Schedule.Slots[0].Slot = 2 },
		"Schedule.Slots.From":                    func(s *spec.Spec) { s.Schedule.Slots[0].From = "b" },
		"Schedule.Slots.To":                      func(s *spec.Spec) { s.Schedule.Slots[0].To = "b" },
		"Schedule.Slots.Source":                  func(s *spec.Spec) { s.Schedule.Slots[0].Source = "b" },
		"Schedule.Policy":                        func(s *spec.Spec) { s.Schedule.Policy = "longest-first" },
		"Schedule.ExtraIdle":                     func(s *spec.Spec) { s.Schedule.ExtraIdle = 3 },
		"Schedule.Priority":                      func(s *spec.Spec) { s.Schedule.Priority = append(s.Schedule.Priority, "G") },
		"Schedule.Channels":                      func(s *spec.Spec) { s.Schedule.Channels = 3 },
		"ReportingInterval":                      func(s *spec.Spec) { s.ReportingInterval = 2 },
		"TTL":                                    func(s *spec.Spec) { s.TTL = 31 },
		"Fdown":                                  func(s *spec.Spec) { s.Fdown = 6 },
		"MessageBits":                            func(s *spec.Spec) { s.MessageBits = 1016 },
		"DefaultBER":                             func(s *spec.Spec) { s.DefaultBER = f(3e-4) },
		"Sources":                                func(s *spec.Spec) { s.Sources = nil },
		"Links.Fading (dropped)":                 func(s *spec.Spec) { s.Links[0].Fading = nil },
		"Links.Failure (dropped)":                func(s *spec.Spec) { s.Links[0].Failure = nil },
		"Links (one more)":                       func(s *spec.Spec) { s.Links = append(s.Links, spec.Link{A: "a", B: "G"}) },
		"Links.Fading.Transitions (row dropped)": func(s *spec.Spec) { s.Links[0].Fading.Transitions = s.Links[0].Fading.Transitions[:1] },
	}
	for _, path := range fieldPaths(reflect.TypeOf(spec.Spec{}), "") {
		if _, ok := fields[path]; !ok {
			t.Errorf("spec field %s has no SameBase row", path)
		}
	}
	base := fullSpec()
	if !base.SameBase(clone(t, base)) {
		t.Fatal("a spec and its copy have different bases")
	}
	for name, edit := range fields {
		c := clone(t, base)
		edit(c)
		want := strings.HasPrefix(name, "Links.Failure")
		if got := base.SameBase(c); got != want {
			t.Errorf("%s changed: SameBase = %v, want %v", name, got, want)
		}
		if got := c.SameBase(base); got != want {
			t.Errorf("%s changed, reversed: SameBase = %v, want %v", name, got, want)
		}
	}

	// Floats compare by their bits: -0 is not +0, and a NaN shares with
	// nothing, not even an identical spec.
	zero, negZero := clone(t, base), clone(t, base)
	zero.Links[0].PFl, negZero.Links[0].PFl = f(0), f(math.Copysign(0, -1))
	if zero.SameBase(negZero) {
		t.Error("pfl +0 and -0 share a base")
	}
	for name, edit := range map[string]func(s *spec.Spec){
		"pfl":    func(s *spec.Spec) { s.Links[0].PFl = f(math.NaN()) },
		"fading": func(s *spec.Spec) { s.Links[0].Fading.Success[0] = math.NaN() },
	} {
		a, b := clone(t, base), clone(t, base)
		edit(a)
		edit(b)
		if a.SameBase(b) {
			t.Errorf("a NaN %s shares a base", name)
		}
	}
}

// analysisBits lists every number of a network analysis, floats by their
// bits.
func analysisBits(na *core.NetworkAnalysis) []uint64 {
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	addPMF := func(d *stats.PMF) {
		if d == nil {
			out = append(out, math.MaxUint64)
			return
		}
		for _, x := range d.Support() {
			add(x, d.Prob(x))
		}
	}
	for _, pa := range na.Paths {
		out = append(out, uint64(pa.Source))
		for _, id := range pa.Path.Nodes() {
			out = append(out, uint64(id))
		}
		add(pa.Reachability, pa.ExpectedDelayMS, pa.UtilizationExact, pa.UtilizationClosed)
		r := pa.Result
		add(r.CycleProbs...)
		for _, a := range r.GoalAges {
			out = append(out, uint64(a))
		}
		add(r.DiscardProb, r.ExpectedAttempts)
		out = append(out, uint64(r.Fup), uint64(r.Is), uint64(r.Hops))
		addPMF(pa.DelayDist)
	}
	add(na.OverallMeanDelayMS, na.UtilizationExact, na.UtilizationClosed)
	addPMF(na.OverallDelay)
	return out
}

// bitsOf analyzes a build and lists its numbers.
func bitsOf(t *testing.T, name string, b *spec.Built) []uint64 {
	t.Helper()
	na, err := b.Analyzer.Analyze()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return analysisBits(na)
}

// sameBuild reports how an overlay differs from the full build of the
// same spec, whose analysis lists want: its analysis, its source keys and
// its simulator links.
func sameBuild(t *testing.T, name string, ov, full *spec.Built, want []uint64) {
	t.Helper()
	if !slices.Equal(bitsOf(t, name, ov), want) {
		t.Errorf("%s: overlay analysis differs from the full build's", name)
	}
	for _, src := range full.Analyzer.Sources() {
		kO, okO := ov.Analyzer.SourceKey(src)
		kF, okF := full.Analyzer.SourceKey(src)
		if kO != kF || okO != okF {
			t.Errorf("%s: source %d key (%q, %v), full build (%q, %v)", name, src, kO, okO, kF, okF)
		}
	}
	simO, simF := ov.SimLinks(), full.SimLinks()
	for id, pF := range simF {
		fF, forcedF := pF.(*des.ForcedWindowProcess)
		fO, forcedO := simO[id].(*des.ForcedWindowProcess)
		if forcedO != forcedF || (forcedF && (fO.From != fF.From || fO.To != fF.To)) {
			t.Errorf("%s: link %d simulator forcing differs: overlay %+v, full %+v", name, id, simO[id], pF)
		}
	}
	if len(simO) != len(simF) || len(ov.Failures) != len(full.Failures) {
		t.Errorf("%s: %d simulator links and %d failures, full build %d and %d",
			name, len(simO), len(ov.Failures), len(simF), len(full.Failures))
	}
}

// injected is the failure f of s's link l as an analyzer option, derived
// without the overlay: the availability of f on the link's resolved
// process, for the link the built network has between its endpoints.
func injected(t *testing.T, s *spec.Spec, b *spec.Built, l int, f spec.Failure) core.Option {
	t.Helper()
	p, err := s.ResolveLinkProcess(s.Links[l])
	if err != nil {
		t.Fatal(err)
	}
	var av link.Availability
	switch m, twoState := p.(link.Model); {
	case f.Kind == "permanent":
		av = link.PermanentDown()
	case twoState:
		av, err = m.DownDuring(f.FromSlot, f.ToSlot, m.Steady())
	default:
		av, err = link.Blocked(p.Steady(), f.FromSlot, f.ToSlot)
	}
	if err != nil {
		t.Fatal(err)
	}
	a, _ := b.Net.NodeByName(s.Links[l].A)
	c, _ := b.Net.NodeByName(s.Links[l].B)
	lnk, ok := b.Net.LinkBetween(a.ID, c.ID)
	if !ok {
		t.Fatalf("link %d not built", l)
	}
	return core.WithLinkAvailability(lnk.ID, av)
}

// TestOverlayMatchesBuild is the differential check of the base + overlay
// split: every single-link failure of 64 generated networks (and of a
// network whose links fade), permanent and window, derived as an Overlay
// of the intact build and of the first failed column's build, equals the
// full BuildWith of that column — bit-identical analyses, identical
// source keys and the same forced simulator windows.
func TestOverlayMatchesBuild(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 6
	}
	var specs []*spec.Spec
	for i := 0; i < n; i++ {
		g, err := gen.Generate(29, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, g.Spec)
	}
	fading := gen.DefaultParams()
	fading.FadingProb = 0.5
	g, err := gen.Generate(29, 0, fading)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mustJSON(t, g.Spec)), `"fading"`) {
		t.Fatal("the fading network has no fading link")
	}
	specs = append(specs, g.Spec)

	cache := core.WithStructureCache(core.NewStructureMap())
	failures := []spec.Failure{{Kind: "permanent"}, {Kind: "window", FromSlot: 0, ToSlot: 20}}
	for i, s := range specs {
		intact, err := s.BuildWith(cache)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			var first *spec.Built
			for l := range s.Links {
				c := *s
				c.Links = append([]spec.Link(nil), s.Links...)
				c.Links[l].Failure = &f
				if !s.SameBase(&c) {
					t.Fatalf("network %d link %d: a failed column has another base", i, l)
				}
				full, err := c.BuildWith(cache)
				if err != nil {
					t.Fatal(err)
				}
				want := bitsOf(t, name(i, l, f, "full build"), full)
				// The failure reaches the analyzer as it did before builds
				// were split: an availability option on the intact network.
				oracle, err := s.BuildWith(cache, injected(t, s, intact, l, f))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(bitsOf(t, name(i, l, f, "injected"), oracle), want) {
					t.Errorf("%s: full build differs from the injected availability", name(i, l, f, "full build"))
				}
				if first == nil {
					first = full
				}
				for from, base := range map[string]*spec.Built{"intact": intact, "first column": first} {
					ov, err := base.Overlay(&c)
					if err != nil {
						t.Fatal(err)
					}
					sameBuild(t, name(i, l, f, from), ov, full, want)
				}
			}
			// The intact network is an overlay of a failed column too.
			ov, err := first.Overlay(s)
			if err != nil {
				t.Fatal(err)
			}
			sameBuild(t, name(i, -1, f, "first column"), ov, intact, bitsOf(t, name(i, -1, f, "intact"), intact))
		}
	}
}

func name(network, link int, f spec.Failure, from string) string {
	b, _ := json.Marshal(struct {
		Network, Link int
		Failure       spec.Failure
		From          string
	}{network, link, f, from})
	return string(b)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOverlayKeepsExtraAvailability: an extra core.WithLinkAvailability
// passed to BuildWith wins over a failure declared on the same link, in a
// full build and in an overlay alike.
func TestOverlayKeepsExtraAvailability(t *testing.T) {
	s := spec.TypicalSpec()
	up := func(int) float64 { return 1 }
	extra := core.WithLinkAvailability(topology.LinkID(0), up)
	intact, err := s.BuildWith(extra)
	if err != nil {
		t.Fatal(err)
	}
	failed := clone(t, s)
	failed.Links[0].Failure = &spec.Failure{Kind: "permanent"}
	full, err := failed.BuildWith(extra)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := intact.Overlay(failed)
	if err != nil {
		t.Fatal(err)
	}
	sameBuild(t, "extra availability", ov, full, bitsOf(t, "extra availability", full))
	na, err := ov.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// n1's one hop is link 0, held up in every slot by the extra.
	if r := na.Paths[0].Reachability; r != 1 {
		t.Errorf("n1 reachability %v under an always-up extra, want 1", r)
	}
}

// BenchmarkSpecOverlay times a failure sweep's realization: one base build
// of a generated network (gen seed 1) plus one overlay per link, each
// with a window failure over uplink slots [0, 20).
func BenchmarkSpecOverlay(b *testing.B) {
	g, err := gen.Generate(1, 0, gen.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	sweep := make([]*spec.Spec, len(g.Spec.Links))
	for l := range sweep {
		c := *g.Spec
		c.Links = append([]spec.Link(nil), g.Spec.Links...)
		c.Links[l].Failure = &spec.Failure{Kind: "window", FromSlot: 0, ToSlot: 20}
		sweep[l] = &c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := g.Spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sweep {
			if _, err := base.Overlay(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
