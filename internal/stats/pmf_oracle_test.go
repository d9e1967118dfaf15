package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapPMF is the PMF as it was first written, over a map, and the oracle
// for the slice-backed one: every method sorts the support and walks it in
// ascending order.
type mapPMF struct {
	points map[float64]float64
}

func newMapPMF() *mapPMF { return &mapPMF{points: map[float64]float64{}} }

func (m *mapPMF) Set(x, p float64)       { m.points[x] = p }
func (m *mapPMF) Add(x, p float64)       { m.points[x] += p }
func (m *mapPMF) Prob(x float64) float64 { return m.points[x] }
func (m *mapPMF) Len() int               { return len(m.points) }

func (m *mapPMF) Support() []float64 {
	out := make([]float64, 0, len(m.points))
	for x := range m.points {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

func (m *mapPMF) Total() float64 {
	var s float64
	for _, x := range m.Support() {
		s += m.points[x]
	}
	return s
}

func (m *mapPMF) Mean() float64 {
	var s float64
	for _, x := range m.Support() {
		s += x * m.points[x]
	}
	return s
}

func (m *mapPMF) Variance() float64 {
	mean := m.Mean()
	var s float64
	for _, x := range m.Support() {
		d := x - mean
		s += d * d * m.points[x]
	}
	return s
}

func (m *mapPMF) Normalized() (*mapPMF, error) {
	tot := m.Total()
	if tot <= 0 {
		return nil, errors.New("no mass")
	}
	out := newMapPMF()
	for x, p := range m.points {
		out.points[x] = p / tot
	}
	return out, nil
}

func (m *mapPMF) Scale(alpha float64) *mapPMF {
	out := newMapPMF()
	for x, p := range m.points {
		out.points[x] = p * alpha
	}
	return out
}

func (m *mapPMF) Merge(other *mapPMF) {
	for x, p := range other.points {
		m.Add(x, p)
	}
}

func (m *mapPMF) CDFAt(x float64) float64 {
	var s float64
	for _, pt := range m.Support() {
		if pt <= x {
			s += m.points[pt]
		}
	}
	return s
}

func (m *mapPMF) Quantile(level float64) (float64, error) {
	if m.Len() == 0 {
		return 0, errors.New("empty")
	}
	var cum float64
	for _, x := range m.Support() {
		cum += m.points[x]
		if cum >= level-1e-12 {
			return x, nil
		}
	}
	return 0, errors.New("above total mass")
}

func (m *mapPMF) String() string {
	s := ""
	for i, x := range m.Support() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%g:%.6g", x, m.points[x])
	}
	return s
}

// pmfPair is a PMF and its oracle, driven by the same operations.
type pmfPair struct {
	got  *PMF
	want *mapPMF
}

func newPMFPair() pmfPair { return pmfPair{NewPMF(), newMapPMF()} }

// randomPoint draws a support point from a small grid, so points repeat,
// with both signs of zero among them.
func randomPoint(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return float64(rng.Intn(40)-8) * 10
	}
}

// randomProb draws a probability, -0 and 0 included.
func randomProb(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return rng.Float64()
	}
}

// fill drives n Add or Set operations through both sides, in ascending
// runs when ascending is set and in random order otherwise.
func (pp pmfPair) fill(rng *rand.Rand, n int, ascending bool) {
	x := -100.0
	for i := 0; i < n; i++ {
		if ascending {
			x += float64(rng.Intn(3)) * 10 // 0: onto the last point
		} else {
			x = randomPoint(rng)
		}
		p := randomProb(rng)
		if rng.Intn(5) == 0 {
			pp.got.Set(x, p)
			pp.want.Set(x, p)
		} else {
			pp.got.Add(x, p)
			pp.want.Add(x, p)
		}
	}
}

// bitsEqual reports whether a and b are the same float64, bit for bit.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check compares every method of pp's PMF with the oracle, bit for bit.
func (pp pmfPair) check(t *testing.T, what string) {
	t.Helper()
	got, want := pp.got, pp.want
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", what, got.Len(), want.Len())
	}
	gs, ws := got.Support(), want.Support()
	xs, ps := got.Points()
	for i := range ws {
		if !bitsEqual(gs[i], ws[i]) || !bitsEqual(xs[i], ws[i]) {
			t.Fatalf("%s: support[%d] %v (points %v), want %v", what, i, gs[i], xs[i], ws[i])
		}
		if !bitsEqual(ps[i], want.Prob(ws[i])) || !bitsEqual(got.Prob(ws[i]), want.Prob(ws[i])) {
			t.Fatalf("%s: prob at %v = %v (points %v), want %v", what, ws[i], got.Prob(ws[i]), ps[i], want.Prob(ws[i]))
		}
	}
	for _, x := range []float64{-1000, -5, 5, 1e9} {
		if got.Prob(x) != 0 {
			t.Fatalf("%s: prob at absent %v = %v", what, x, got.Prob(x))
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Total", got.Total(), want.Total()},
		{"Mean", got.Mean(), want.Mean()},
		{"Variance", got.Variance(), want.Variance()},
	} {
		if !bitsEqual(c.got, c.want) {
			t.Fatalf("%s: %s %v, want %v", what, c.name, c.got, c.want)
		}
	}
	for _, x := range []float64{-1000, -80, math.Copysign(0, -1), 0, 35, 150, 1e9, math.Inf(1), math.NaN()} {
		if g, w := got.CDFAt(x), want.CDFAt(x); !bitsEqual(g, w) {
			t.Fatalf("%s: CDFAt(%v) %v, want %v", what, x, g, w)
		}
	}
	for _, level := range []float64{0, 0.1, 0.5, 0.9, 1, 2} {
		g, gerr := got.Quantile(level)
		w, werr := want.Quantile(level)
		if (gerr != nil) != (werr != nil) || !bitsEqual(g, w) {
			t.Fatalf("%s: Quantile(%v) %v, %v, want %v, %v", what, level, g, gerr, w, werr)
		}
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("%s: String %q, want %q", what, g, w)
	}
}

// TestPMFMatchesMapOracle drives the PMF and the map-backed oracle through
// the same random Add, Set, Merge, Scale and Normalized calls (Normalize
// against Normalized), in and out of support order, and requires every
// method to agree bit for bit.
func TestPMFMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		pp := newPMFPair()
		pp.fill(rng, rng.Intn(30), rng.Intn(2) == 0)
		pp.check(t, fmt.Sprintf("round %d: filled", round))

		other := newPMFPair()
		other.fill(rng, rng.Intn(30), rng.Intn(2) == 0)
		pp.got.Merge(other.got)
		pp.want.Merge(other.want)
		pp.check(t, fmt.Sprintf("round %d: merged", round))

		pp.fill(rng, rng.Intn(10), false)
		pp.check(t, fmt.Sprintf("round %d: refilled", round))

		alpha := rng.Float64()
		scaled := pmfPair{pp.got.Scale(alpha), pp.want.Scale(alpha)}
		scaled.check(t, fmt.Sprintf("round %d: scaled", round))

		gn, gerr := pp.got.Normalized()
		wn, werr := pp.want.Normalized()
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("round %d: Normalized error %v, want %v", round, gerr, werr)
		}
		inPlace := pp.got.clone()
		if err := inPlace.Normalize(); (err != nil) != (werr != nil) {
			t.Fatalf("round %d: Normalize error %v, want %v", round, err, werr)
		}
		if werr == nil {
			pmfPair{gn, wn}.check(t, fmt.Sprintf("round %d: normalized", round))
			pmfPair{inPlace, wn}.check(t, fmt.Sprintf("round %d: normalized in place", round))
		} else {
			pmfPair{inPlace, pp.want}.check(t, fmt.Sprintf("round %d: failed Normalize", round))
		}

		pp.got.Merge(pp.got)
		pp.want.Merge(pp.want)
		pp.check(t, fmt.Sprintf("round %d: merged with itself", round))
	}
}
