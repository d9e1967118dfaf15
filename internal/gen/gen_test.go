package gen

import (
	"bytes"
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/topology"
)

// testParams keeps property-test populations small enough to sweep many
// indices quickly while still exercising depth, fan-in and mesh links.
func testParams() Params {
	p := DefaultParams()
	p.NodesMin = 8
	p.NodesMax = 16
	return p
}

// TestGeneratedInvariants is the generator's property suite: over a
// seeded population, every network must be connected with exactly one
// gateway, respect the hop limit, carry a ValidateSources-clean
// schedule, and solve without error through the pathmodel pipeline.
func TestGeneratedInvariants(t *testing.T) {
	cases := map[string]Params{
		"default":    testParams(),
		"singlechan": func() Params { p := testParams(); p.Channels = 1; return p }(),
		"bimodal": func() Params {
			p := testParams()
			p.DegradedProb = 0.3
			p.DegradedLo = 0.55
			p.DegradedHi = 0.7
			return p
		}(),
		"shallow":     func() Params { p := testParams(); p.MaxDepth = 2; p.DepthWeights = nil; p.MaxFanIn = 8; return p }(),
		"dense-extra": func() Params { p := testParams(); p.ExtraLinkProb = 1; return p }(),
		"fading":      func() Params { p := testParams(); p.FadingProb = 0.4; return p }(),
	}
	for name, p := range cases {
		p := p
		t.Run(name, func(t *testing.T) {
			for index := 0; index < 12; index++ {
				g, err := Generate(7, index, p)
				if err != nil {
					t.Fatalf("Generate(7, %d): %v", index, err)
				}
				checkInvariants(t, g, p)
			}
		})
	}
}

func checkInvariants(t *testing.T, g *Generated, p Params) {
	t.Helper()
	// Exactly one gateway, node count within bounds.
	gateways := 0
	for _, n := range g.Net.Nodes() {
		if n.Kind == topology.Gateway {
			gateways++
		}
	}
	if gateways != 1 {
		t.Fatalf("network %d has %d gateways", g.Index, gateways)
	}
	devices := g.Net.NumNodes() - 1
	if devices < p.NodesMin || devices > p.NodesMax {
		t.Fatalf("network %d has %d devices, want [%d,%d]", g.Index, devices, p.NodesMin, p.NodesMax)
	}
	// Connected: every field device has an uplink route.
	if len(g.Routes) != len(g.Net.FieldDevices()) {
		t.Fatalf("network %d: %d routes for %d field devices", g.Index, len(g.Routes), len(g.Net.FieldDevices()))
	}
	// Hop limit respected.
	if err := topology.CheckHopLimit(g.Routes); err != nil {
		t.Fatalf("network %d: %v", g.Index, err)
	}
	// Depths stay within budget and every device has a parent one level up.
	for _, id := range g.Net.FieldDevices() {
		d := g.Depths[id]
		if d < 1 || d > p.MaxDepth {
			t.Fatalf("network %d: node %d depth %d out of [1,%d]", g.Index, id, d, p.MaxDepth)
		}
		hasParent := false
		for _, nb := range g.Net.Neighbors(id) {
			if g.Depths[nb] == d-1 {
				hasParent = true
				break
			}
		}
		if !hasParent {
			t.Fatalf("network %d: node %d at depth %d has no neighbor at depth %d", g.Index, id, d, d-1)
		}
	}
	// Schedule is ValidateSources-clean for every routed source.
	if err := g.Plan.ValidateSources(g.Net, g.Routes, topology.SortedSources(g.Routes)); err != nil {
		t.Fatalf("network %d: schedule invalid: %v", g.Index, err)
	}
	// The whole network solves through the pathmodel pipeline.
	built, err := g.Spec.Build()
	if err != nil {
		t.Fatalf("network %d: spec build: %v", g.Index, err)
	}
	na, err := built.Analyzer.Analyze()
	if err != nil {
		t.Fatalf("network %d: analyze: %v", g.Index, err)
	}
	if len(na.Paths) != len(g.Routes) {
		t.Fatalf("network %d: analyzed %d paths for %d routes", g.Index, len(na.Paths), len(g.Routes))
	}
	for _, pa := range na.Paths {
		if pa.Reachability <= 0 || pa.Reachability > 1 {
			t.Fatalf("network %d source %d: reachability %v out of (0,1]", g.Index, pa.Source, pa.Reachability)
		}
	}
}

// TestGenerateDeterministic pins that the same (seed, index, params)
// triple regenerates an identical network — spec bytes and schedule both.
func TestGenerateDeterministic(t *testing.T) {
	p := testParams()
	for index := 0; index < 5; index++ {
		a, err := Generate(42, index, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(42, index, p)
		if err != nil {
			t.Fatal(err)
		}
		var abuf, bbuf bytes.Buffer
		if err := a.Spec.Write(&abuf); err != nil {
			t.Fatal(err)
		}
		if err := b.Spec.Write(&bbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
			t.Fatalf("index %d: specs differ between identical generations", index)
		}
		if a.Plan.Format(a.Net) != b.Plan.Format(b.Net) {
			t.Fatalf("index %d: schedules differ between identical generations", index)
		}
	}
}

// TestGenerateStreamsIndependent checks distinct indices draw from
// distinct PCG streams: different networks, regenerable out of order.
func TestGenerateStreamsIndependent(t *testing.T) {
	p := testParams()
	a, err := Generate(9, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(9, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	var abuf, bbuf bytes.Buffer
	if err := a.Spec.Write(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.Spec.Write(&bbuf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Fatal("adjacent indices generated identical networks")
	}
	// Regenerating index 1 without touching index 0 yields the same bytes.
	b2, err := Generate(9, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	var b2buf bytes.Buffer
	if err := b2.Spec.Write(&b2buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bbuf.Bytes(), b2buf.Bytes()) {
		t.Fatal("index 1 depends on whether index 0 was generated")
	}
}

// TestGenerateFadingLinks pins the fading draw: with FadingProb = 1
// every link carries a fading block (no scalar availability), the block
// reconstructs into a valid k-state chain of the requested size whose
// steady availability lands in the configured link-quality range, and
// the draw is deterministic.
func TestGenerateFadingLinks(t *testing.T) {
	p := testParams()
	p.FadingProb = 1
	p.FadingStates = 4
	p.FadingStay = 0.85
	g, err := Generate(3, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range g.Spec.Links {
		if l.Fading == nil {
			t.Fatalf("link %d: no fading block despite FadingProb=1", i)
		}
		if l.Availability != nil {
			t.Fatalf("link %d: fading link also carries a scalar availability", i)
		}
		m, err := link.NewKState(l.Fading.Transitions, l.Fading.Success)
		if err != nil {
			t.Fatalf("link %d: drawn fading block invalid: %v", i, err)
		}
		if m.States() != 4 {
			t.Fatalf("link %d: %d states, want 4", i, m.States())
		}
		if a := m.SteadyUp(); a < p.AvailLo-1e-9 || a > p.AvailHi+1e-9 {
			t.Fatalf("link %d: steady availability %v outside [%v,%v]", i, a, p.AvailLo, p.AvailHi)
		}
	}
	g2, err := Generate(3, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	var abuf, bbuf bytes.Buffer
	if err := g.Spec.Write(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := g2.Spec.Write(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Fatal("fading specs differ between identical generations")
	}
}

// TestGenerateFadingMixed checks a fractional FadingProb draws both link
// kinds over a small population.
func TestGenerateFadingMixed(t *testing.T) {
	p := testParams()
	p.FadingProb = 0.5
	fading, scalar := 0, 0
	for index := 0; index < 6; index++ {
		g, err := Generate(5, index, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Spec.Links {
			if l.Fading != nil {
				fading++
			} else {
				scalar++
			}
		}
	}
	if fading == 0 || scalar == 0 {
		t.Fatalf("FadingProb=0.5 drew %d fading and %d scalar links", fading, scalar)
	}
}

// TestGenerateFadingOffPreservesSeeds pins the backward-compatibility
// contract: with FadingProb zero, setting the other fading knobs leaves
// every generated byte untouched, and no link carries a fading block.
func TestGenerateFadingOffPreservesSeeds(t *testing.T) {
	a, err := Generate(21, 0, testParams())
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.FadingStates = 5
	p.FadingStay = 0.7
	b, err := Generate(21, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	var abuf, bbuf bytes.Buffer
	if err := a.Spec.Write(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.Spec.Write(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Fatal("fading knobs changed generation despite FadingProb=0")
	}
	for i, l := range a.Spec.Links {
		if l.Fading != nil {
			t.Fatalf("link %d: fading block despite FadingProb=0", i)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NodesMin = 0 },
		func(p *Params) { p.NodesMax = p.NodesMin - 1 },
		func(p *Params) { p.MaxDepth = 0 },
		func(p *Params) { p.MaxDepth = topology.MaxHops + 1 },
		func(p *Params) { p.DepthWeights = []float64{1} },
		func(p *Params) { p.DepthWeights = []float64{0, 0, 0, 0} },
		func(p *Params) { p.DepthWeights = []float64{1, -1, 1, 1} },
		func(p *Params) { p.MaxFanIn = 0 },
		func(p *Params) { p.MaxFanIn = 1; p.NodesMax = 20 }, // capacity 4 < 20
		func(p *Params) { p.ExtraLinkProb = 1.5 },
		func(p *Params) { p.AvailLo = 0.2 },
		func(p *Params) { p.AvailHi = 1.01 },
		func(p *Params) { p.AvailLo = 0.9; p.AvailHi = 0.8 },
		func(p *Params) { p.DegradedProb = 0.5 }, // degraded range unset
		func(p *Params) { p.FadingProb = -0.1 },
		func(p *Params) { p.FadingProb = 1.5 },
		func(p *Params) { p.FadingProb = 0.5; p.FadingStates = 1 },
		func(p *Params) { p.FadingProb = 0.5; p.FadingStates = 17 },
		func(p *Params) { p.FadingProb = 0.5; p.FadingStay = 1 },
		func(p *Params) { p.FadingProb = 0.5; p.FadingStay = -0.1 },
		func(p *Params) { p.Channels = 0 },
		func(p *Params) { p.Channels = 17 },
		func(p *Params) { p.ExtraIdle = -1 },
		func(p *Params) { p.ReportingInterval = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params validated", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	if _, err := Generate(1, -1, DefaultParams()); err == nil {
		t.Error("negative index accepted")
	}
}
