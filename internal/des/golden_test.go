package des_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/des"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

// updateGolden regenerates testdata/des.golden:
// UPDATE_GOLDEN=1 go test ./internal/des -run TestDESGolden
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// desCase is one simulator run whose sample path the golden table pins.
// cfg carries everything but the network, schedule and link processes,
// which come from spec; links, when set, replaces the spec's links.
type desCase struct {
	name  string
	spec  *spec.Spec
	cfg   des.Config
	links func(b *spec.Built) (map[topology.LinkID]des.LinkProcess, error)
}

// withLink returns a copy of s whose link a-b is edited by set.
func withLink(t *testing.T, s *spec.Spec, a, b string, set func(*spec.Link)) *spec.Spec {
	t.Helper()
	c := *s
	c.Links = append([]spec.Link(nil), s.Links...)
	for i := range c.Links {
		if c.Links[i].A == a && c.Links[i].B == b {
			set(&c.Links[i])
			return &c
		}
	}
	t.Fatalf("no link %s-%s", a, b)
	return nil
}

// desCases lists the typical network under eta_a and eta_b, Section
// V-A's explicit 3-hop path, 16 generated networks at one and two
// channels (half with fading links), window and permanent failures, k-state
// fading links, channel-hopping links, restricted and unsorted sources, a
// TTL below the horizon and Fdown 0.
func desCases(t *testing.T) []desCase {
	t.Helper()
	etaA := spec.TypicalSpec()
	etaB := spec.TypicalSpec()
	etaB.Schedule.Policy = ""
	etaB.Schedule.Priority = []string{"n9", "n10", "n4", "n5", "n6", "n8", "n7", "n1", "n2", "n3"}
	run := des.Config{Intervals: 400, Seed: 11, Fdown: -1}
	with := func(edit func(*des.Config)) des.Config {
		c := run
		edit(&c)
		return c
	}
	cases := []desCase{
		{name: "typical eta_a", spec: etaA, cfg: run},
		{name: "typical eta_b", spec: etaB, cfg: run},
	}

	chain := &spec.Spec{
		Nodes: []spec.Node{{Name: "G", Kind: "gateway"}, {Name: "a"}, {Name: "b"}, {Name: "c"}},
		Links: []spec.Link{{A: "a", B: "b"}, {A: "b", B: "c"}, {A: "c", B: "G"}},
		Schedule: spec.Schedule{Fup: 7, Slots: []spec.Transmission{
			{Slot: 3, From: "a", To: "b", Source: "a"},
			{Slot: 6, From: "b", To: "c", Source: "a"},
			{Slot: 7, From: "c", To: "G", Source: "a"},
		}},
		Sources:           []string{"a"},
		ReportingInterval: 4,
	}
	cases = append(cases, desCase{name: "explicit 3-hop 3,6,7", spec: chain, cfg: with(func(c *des.Config) { c.Intervals = 2000 })})

	for i := 0; i < 16; i++ {
		p := gen.DefaultParams()
		p.Channels = 1 + i%2
		if i%4 >= 2 {
			p.FadingProb = 0.3
		}
		g, err := gen.Generate(9, i, p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, desCase{
			name: fmt.Sprintf("gen %d %d channels fading %v", i, p.Channels, p.FadingProb),
			spec: g.Spec,
			cfg:  with(func(c *des.Config) { c.Intervals = 60; c.Seed = int64(100 + i) }),
		})
	}

	window := withLink(t, etaA, "n3", "G", func(l *spec.Link) {
		l.Failure = &spec.Failure{Kind: "window", FromSlot: 5, ToSlot: 27}
	})
	permanent := withLink(t, etaA, "n7", "n3", func(l *spec.Link) { l.Failure = &spec.Failure{Kind: "permanent"} })
	cases = append(cases,
		desCase{name: "typical window failure n3-G [5,27)", spec: window, cfg: run},
		desCase{name: "typical permanent failure n7-n3", spec: permanent, cfg: run},
	)

	fading := withLink(t, etaA, "n1", "G", func(l *spec.Link) {
		l.Fading = &spec.Fading{
			Transitions: [][]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}},
			Success:     []float64{0.1, 0.6, 0.99},
		}
	})
	fading = withLink(t, fading, "n10", "n7", func(l *spec.Link) {
		l.Fading = &spec.Fading{Transitions: [][]float64{{0.95, 0.05}, {0.3, 0.7}}, Success: []float64{0.97, 0.2}}
	})
	cases = append(cases, desCase{name: "typical k-state fading n1-G n10-n7", spec: fading, cfg: run})

	hopping := func(b *spec.Built) (map[topology.LinkID]des.LinkProcess, error) {
		snrs := make([]float64, channel.NumChannels)
		for i := range snrs {
			snrs[i] = 4 + float64(i%5)
		}
		bl := channel.NewBlacklist()
		if err := bl.Ban(3); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(5))
		out := map[topology.LinkID]des.LinkProcess{}
		for j, l := range b.Net.Links() {
			var list *channel.Blacklist
			if j%2 == 1 {
				list = bl
			}
			p, err := des.NewHoppingProcess(snrs, channel.DefaultMessageBits, list, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			out[l.ID] = p
		}
		return out, nil
	}
	cases = append(cases, desCase{name: "typical hopping links", spec: etaA, cfg: run, links: hopping})

	// TypicalSpec adds G then n1..n10, so node ni has id i.
	restrict := func(ids ...topology.NodeID) func(*des.Config) {
		return func(c *des.Config) { c.Sources = ids }
	}
	cases = append(cases,
		desCase{name: "typical sources n10 n4 n7", spec: etaA, cfg: with(restrict(10, 4, 7))},
		desCase{name: "typical eta_b sources n2 n9", spec: etaB, cfg: with(restrict(2, 9))},
		desCase{name: "typical ttl 37", spec: etaA, cfg: with(func(c *des.Config) { c.TTL = 37 })},
		desCase{name: "typical eta_b ttl 20", spec: etaB, cfg: with(func(c *des.Config) { c.TTL = 20 })},
		desCase{name: "typical fdown 0", spec: etaA, cfg: with(func(c *des.Config) { c.Fdown = 0 })},
	)
	return cases
}

// simulate builds c's spec and runs both simulators on it. Is comes from
// the spec, the rest of the run from c.cfg.
func simulate(t *testing.T, c desCase) (*des.Result, *des.RoundTripResult) {
	t.Helper()
	b, err := c.spec.Build()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	linksFor := func() map[topology.LinkID]des.LinkProcess {
		if c.links != nil {
			m, err := c.links(b)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return m
		}
		return b.SimLinks()
	}
	cfg := c.cfg
	cfg.Net, cfg.Sched, cfg.Is, cfg.Links = b.Net, b.Schedule, b.Analyzer.Is(), linksFor()
	res, err := des.Run(cfg)
	if err != nil {
		t.Fatalf("%s: Run: %v", c.name, err)
	}
	rt, err := des.RunRoundTrip(des.RoundTripConfig{
		Net: b.Net, Sched: b.Schedule, Is: cfg.Is, Intervals: cfg.Intervals,
		Seed: cfg.Seed + 1, Links: linksFor(), Sources: cfg.Sources,
	})
	if err != nil {
		t.Fatalf("%s: RunRoundTrip: %v", c.name, err)
	}
	return res, rt
}

// bits renders x exactly, so the digest moves with any bit of any sample.
func bits(x float64) string { return strconv.FormatFloat(x, 'b', -1, 64) }

// renderSummary writes every accessor of s.
func renderSummary(b *strings.Builder, s *stats.Summary) {
	fmt.Fprintf(b, " n %d mean %s min %s max %s", s.N(), bits(s.Mean()), bits(s.Min()), bits(s.Max()))
	if v, err := s.Variance(); err == nil {
		fmt.Fprintf(b, " var %s", bits(v))
	} else {
		b.WriteString(" var none")
	}
}

// render writes every field of every path and loop of one case.
func render(res *des.Result, rt *des.RoundTripResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "intervals %d is %d fup %d\n", res.Intervals, res.Is, res.Fup)
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "path %d hops %d gen %d del %d lost %d attempts %d cycles %v",
			p.Source, p.Hops, p.Generated, p.Delivered, p.Lost, p.Attempts, p.CycleCounts)
		renderSummary(&b, &p.DelaySummary)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "loops intervals %d\n", rt.Intervals)
	for _, l := range rt.Loops {
		fmt.Fprintf(&b, "loop %d hops %d gen %d done %d cycles %v\n",
			l.Source, l.Hops, l.Generated, l.Completed, l.CycleCounts)
	}
	return b.String()
}

// TestDESGolden pins the exact sample path of both simulators, as SHA-256
// digests of every field of every PathResult and LoopStats, per case. It
// was recorded from the event-queue simulator (commit 989d594), so it
// holds the slot-stepped loop to the same RNG draws and the same results.
func TestDESGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range desCases(t) {
		res, rt := simulate(t, c)
		fmt.Fprintf(&b, "%s sha256 %x\n", c.name, sha256.Sum256([]byte(render(res, rt))))
	}
	path := filepath.Join("testdata", "des.golden")
	if updateGolden {
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
