package spec_test

import (
	"cmp"
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/core"
	"wirelesshart/internal/des"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

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

// forcedWindows lists the simulator window a build forces on each link,
// {-1, -1} for none, by the link's endpoint names in lexicographic order:
// link ids follow declaration order.
func forcedWindows(b *spec.Built) map[[2]string][2]int {
	nodes, sim := b.Net.Nodes(), b.SimLinks()
	out := map[[2]string][2]int{}
	for _, l := range b.Net.Links() {
		ends := [2]string{nodes[l.A].Name, nodes[l.B].Name}
		if ends[0] > ends[1] {
			ends[0], ends[1] = ends[1], ends[0]
		}
		w := [2]int{-1, -1}
		if f, ok := sim[l.ID].(*des.ForcedWindowProcess); ok {
			w = [2]int{f.From, f.To}
		}
		out[ends] = w
	}
	return out
}

// spellings returns s written four other ways that realize the same
// network: its links declared in reverse order, each link's endpoints
// swapped, each two-state link as the p_fl and p_rc it resolves to, and
// its defaults spelled out.
func spellings(t *testing.T, s *spec.Spec) map[string]*spec.Spec {
	t.Helper()
	out := map[string]*spec.Spec{}
	for _, w := range []string{"reversed", "swapped", "p_fl", "defaults"} {
		out[w] = clone(t, s)
	}
	slices.Reverse(out["reversed"].Links)
	for i := range out["swapped"].Links {
		l := &out["swapped"].Links[i]
		l.A, l.B = l.B, l.A
	}
	resolved := s.ResolveLinks(nil)
	for i, l := range out["p_fl"].Links {
		if l.Fading != nil {
			continue
		}
		if err := resolved[i].Err; err != nil {
			t.Fatal(err)
		}
		pfl, prc := resolved[i].Model.FailureProb(), resolved[i].Model.RecoveryProb()
		out["p_fl"].Links[i] = spec.Link{A: l.A, B: l.B, PFl: &pfl, PRc: &prc}
	}
	d := out["defaults"]
	ber := channel.DefaultBER
	d.MessageBits, d.DefaultBER = d.Bits(), cmp.Or(d.DefaultBER, &ber)
	d.ReportingInterval = cmp.Or(d.ReportingInterval, 4)
	d.Schedule.Channels = cmp.Or(d.Schedule.Channels, 1)
	for i := range d.Nodes {
		d.Nodes[i].Kind = cmp.Or(d.Nodes[i].Kind, "field-device")
		if d.Nodes[i].Kind == "field-device" && len(s.Sources) == 0 {
			d.Sources = append(d.Sources, d.Nodes[i].Name)
		}
	}
	return out
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
	if wO, wF := forcedWindows(ov), forcedWindows(full); !maps.Equal(wO, wF) {
		t.Errorf("%s: simulator forcing differs: overlay %v, full %v", name, wO, wF)
	}
	if len(ov.Failures) != len(full.Failures) {
		t.Errorf("%s: %d failures, full build %d", name, len(ov.Failures), len(full.Failures))
	}
}

// injected is the failure f of s's link l as an analyzer option, derived
// without the overlay: the availability of f on the link's resolved
// process, for the link the built network has between its endpoints.
func injected(t *testing.T, s *spec.Spec, b *spec.Built, l int, f spec.Failure) core.Option {
	t.Helper()
	r := s.ResolveLinks(nil)[l]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	p := r.Process()
	var av link.Availability
	var err error
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
// source keys and the same forced simulator windows. On the first 8
// networks and the fading one, every column of each of four other
// spellings of the network (spellings) is an overlay of the intact build
// too.
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
		if i >= 8 && i < len(specs)-1 {
			continue
		}
		for way, sib := range spellings(t, s) {
			for _, f := range failures {
				for l := range sib.Links {
					c := clone(t, sib)
					c.Links[l].Failure = &f
					full, err := c.BuildWith(cache)
					if err != nil {
						t.Fatal(err)
					}
					ov, err := intact.Overlay(c)
					if err != nil {
						t.Fatal(err)
					}
					n := name(i, l, f, way)
					sameBuild(t, n, ov, full, bitsOf(t, n, full))
				}
			}
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

// TestOverlayRejectsForeignLink: a failure on a link the base network
// does not have is an error, not an override of another link.
func TestOverlayRejectsForeignLink(t *testing.T) {
	intact, err := spec.TypicalSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	s := spec.TypicalSpec()
	s.Links[0] = spec.Link{A: "n4", B: "n9", Failure: &spec.Failure{Kind: "permanent"}}
	if _, err := intact.Overlay(s); err == nil || !strings.Contains(err.Error(), "not in the base network") {
		t.Errorf("overlay of a failure on a link the base lacks: %v", err)
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
