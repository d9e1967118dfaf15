package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"wirelesshart/internal/link"
)

// TestAnalyzeTwoStateProcessEquivalence is the satellite-1 pin at the core
// layer: analyzing the typical network with every link on the k=2 fading
// embedding of the reference model must reproduce the classic analysis at
// 1e-12 on every measure.
func TestAnalyzeTwoStateProcessEquivalence(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	m := mustAvail(t, 0.83)
	ks, err := link.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := New(net, etaA, WithUniformLinkProcess(m))
	if err != nil {
		t.Fatal(err)
	}
	fading, err := New(net, etaA, WithUniformLinkProcess(ks))
	if err != nil {
		t.Fatal(err)
	}
	want, err := classic.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fading.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%d paths, want %d", len(got.Paths), len(want.Paths))
	}
	for i := range got.Paths {
		if d := math.Abs(got.Paths[i].Reachability - want.Paths[i].Reachability); d > 1e-12 {
			t.Errorf("path %d reachability diverges by %v", i, d)
		}
		if d := math.Abs(got.Paths[i].ExpectedDelayMS - want.Paths[i].ExpectedDelayMS); d > 1e-12 {
			t.Errorf("path %d delay diverges by %v", i, d)
		}
	}
	if d := math.Abs(got.UtilizationExact - want.UtilizationExact); d > 1e-12 {
		t.Errorf("utilization diverges by %v", d)
	}
	if d := math.Abs(got.OverallMeanDelayMS - want.OverallMeanDelayMS); d > 1e-12 {
		t.Errorf("overall delay diverges by %v", d)
	}
}

// TestAnalyzeKStateFadingLink exercises a genuinely k>2 per-link process
// end to end: the analysis must run, and weakening one link's stationary
// availability through a bursty fading process must cost reachability on
// the paths that traverse it.
func TestAnalyzeKStateFadingLink(t *testing.T) {
	net, sources, etaA := typicalSetup(t)
	m := mustAvail(t, 0.9)
	fadingLink := net.Links()[0]
	bursty, err := link.NewUniformMixing(0.95, []float64{0.1, 0.6, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(net, etaA, WithUniformLinkProcess(m))
	if err != nil {
		t.Fatal(err)
	}
	faded, err := New(net, etaA,
		WithUniformLinkProcess(m), WithLinkProcess(fadingLink.ID, bursty))
	if err != nil {
		t.Fatal(err)
	}
	baseNA, err := base.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	fadedNA, err := faded.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for i, src := range sources {
		uses := base.Routes()[src].UsesLink(fadingLink.ID)
		dR := baseNA.Paths[i].Reachability - fadedNA.Paths[i].Reachability
		if uses && dR > 1e-6 {
			degraded++
		}
		if !uses && math.Abs(dR) > 1e-12 {
			t.Errorf("path %d does not use the fading link but moved by %v", i, dR)
		}
	}
	if degraded == 0 {
		t.Error("no path degraded by the fading link")
	}
	// The memoryless view reports the fading process's stationary
	// availability.
	if d := math.Abs(link.MemorylessEquivalent(faded.LinkProcess(fadingLink.ID)).SteadyUp() - bursty.SteadyUp()); d > 1e-12 {
		t.Errorf("memoryless steady availability diverges from process by %v", d)
	}
	if faded.LinkProcess(fadingLink.ID).States() != 3 {
		t.Error("LinkProcess did not surface the configured k=3 process")
	}
}

func TestWithLinkProcessValidation(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	if _, err := New(net, etaA, WithUniformLinkProcess(nil)); err == nil {
		t.Error("nil uniform process accepted")
	}
	if _, err := New(net, etaA, WithLinkProcess(0, nil)); err == nil {
		t.Error("nil per-link process accepted")
	}
}

// TestProcessKeySeparatesImplementations guards the path-result memo: the
// k=2 embedding and the classic model yield provably equal results but are
// distinct processes, and must never share a path key.
func TestProcessKeySeparatesImplementations(t *testing.T) {
	m := mustAvail(t, 0.83)
	ks, err := link.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	slots := []int{1, 2}
	classic := ProcessKey(slots, 10, 4, 0, []link.Process{m, m})
	fading := ProcessKey(slots, 10, 4, 0, []link.Process{ks, ks})
	if classic == fading {
		t.Error("classic and k-state processes share a path key")
	}
}

// processKeyFmt is ProcessKey as it was first written, with fmt and a
// strings.Builder: the text the path-result memo has always been keyed by.
func processKeyFmt(slots []int, fup, is, ttl int, procs []link.Process) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d|%d|", fup, is, ttl)
	for _, s := range slots {
		sb.WriteString(strconv.Itoa(s))
		sb.WriteByte(',')
	}
	var buf []byte
	for _, p := range procs {
		sb.WriteByte('|')
		buf = p.AppendKey(buf[:0])
		sb.Write(buf)
	}
	return sb.String()
}

// TestProcessKeyText pins the key text against the fmt form, over empty,
// negative and large values and both process implementations.
func TestProcessKeyText(t *testing.T) {
	m := mustAvail(t, 0.83)
	ks, err := link.FromModel(mustAvail(t, 0.61))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		slots        []int
		fup, is, ttl int
		procs        []link.Process
	}{
		{nil, 0, 0, 0, nil},
		{[]int{1}, 1, 1, 0, []link.Process{m}},
		{[]int{3, 6, 7}, 7, 4, 0, []link.Process{m, m, m}},
		{[]int{1, 2}, 10, 4, 25, []link.Process{m, ks}},
		{[]int{12, 40, 99}, 100, 64, 6400, []link.Process{ks, ks, m}},
		{[]int{-1, 0}, -5, math.MaxInt64, math.MinInt64, []link.Process{ks, m}},
	} {
		want := processKeyFmt(c.slots, c.fup, c.is, c.ttl, c.procs)
		if got := ProcessKey(c.slots, c.fup, c.is, c.ttl, c.procs); got != want {
			t.Errorf("ProcessKey = %q, want %q", got, want)
		}
	}
}
