// Package stats provides the probability and statistics helpers shared by
// the analytical model and the discrete-event simulator: discrete PMFs over
// arbitrary support points, summary statistics with confidence intervals,
// and the geometric / negative-binomial distributions that arise in
// WirelessHART path analysis.
package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// PMF is a probability mass function over float64 support points. The zero
// value is an empty PMF ready for use.
//
// The support is kept in ascending order by construction, so every
// reduction walks it in that order and sums bit-identically from run to
// run (float addition is not associative). A point added above the current
// largest one, or onto it, costs O(1); the delay distributions are built
// that way. Writing an existing point stores x again, as a map key is, so
// a zero point carries the sign last written. Support points must not be
// NaN.
type PMF struct {
	xs []float64 // support points, ascending
	ps []float64 // ps[i] is the probability at xs[i]
}

// NewPMF returns an empty PMF.
func NewPMF() *PMF { return &PMF{} }

// Grow reserves room for n more support points.
func (m *PMF) Grow(n int) {
	m.xs = slices.Grow(m.xs, n)
	m.ps = slices.Grow(m.ps, n)
}

// find returns the index of x in the support, or the index at which it
// would be inserted and false. A point above the last one, or equal to
// it, is found without a search.
func (m *PMF) find(x float64) (int, bool) {
	n := len(m.xs)
	if n == 0 || x > m.xs[n-1] {
		return n, false
	}
	if cmp.Compare(x, m.xs[n-1]) == 0 {
		return n - 1, true
	}
	return slices.BinarySearch(m.xs, x)
}

// Set assigns probability p to support point x, replacing any prior value.
func (m *PMF) Set(x, p float64) {
	if i, ok := m.find(x); ok {
		m.xs[i], m.ps[i] = x, p
	} else {
		m.insert(i, x, p)
	}
}

// Add accumulates probability p onto support point x. A new point starts
// from zero mass, so it holds 0+p (+0 where p is -0).
func (m *PMF) Add(x, p float64) {
	if i, ok := m.find(x); ok {
		m.xs[i], m.ps[i] = x, m.ps[i]+p
	} else {
		m.insert(i, x, 0+p)
	}
}

func (m *PMF) insert(i int, x, p float64) {
	m.xs = slices.Insert(m.xs, i, x)
	m.ps = slices.Insert(m.ps, i, p)
}

// Prob returns the probability at support point x (zero if absent).
func (m *PMF) Prob(x float64) float64 {
	if i, ok := m.find(x); ok {
		return m.ps[i]
	}
	return 0
}

// Len returns the number of support points.
func (m *PMF) Len() int { return len(m.xs) }

// Support returns the support points in ascending order.
func (m *PMF) Support() []float64 {
	return append(make([]float64, 0, len(m.xs)), m.xs...)
}

// Points returns the support points in ascending order and their
// probabilities, index for index. The slices are the PMF's own: callers
// must not modify them, and they are valid until the PMF next changes.
func (m *PMF) Points() (xs, ps []float64) { return m.xs, m.ps }

// Total returns the total probability mass.
func (m *PMF) Total() float64 {
	var s float64
	for _, p := range m.ps {
		s += p
	}
	return s
}

// Mean returns the expectation of the PMF. For a sub-distribution (total
// mass < 1), the mean is taken with respect to the stored mass without
// renormalizing.
func (m *PMF) Mean() float64 {
	var s float64
	for i, x := range m.xs {
		s += x * m.ps[i]
	}
	return s
}

// Variance returns the variance of the PMF around its mean, treating the
// stored mass as-is (callers wanting the conditional variance of a
// sub-distribution should Normalize first).
func (m *PMF) Variance() float64 {
	mean := m.Mean()
	var s float64
	for i, x := range m.xs {
		d := x - mean
		s += d * d * m.ps[i]
	}
	return s
}

// StdDev returns the standard deviation of the PMF.
func (m *PMF) StdDev() float64 {
	v := m.Variance()
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Normalize scales m to total mass one in place. It returns an error,
// leaving m unchanged, if the PMF has no mass.
func (m *PMF) Normalize() error {
	tot := m.Total()
	if tot <= 0 {
		return errors.New("stats: cannot normalize PMF with no mass")
	}
	for i := range m.ps {
		m.ps[i] /= tot
	}
	return nil
}

// Normalized returns a copy scaled to total mass one. It returns an error
// if the PMF has no mass.
func (m *PMF) Normalized() (*PMF, error) {
	out := m.clone()
	if err := out.Normalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// Scale returns a copy with every probability multiplied by alpha.
func (m *PMF) Scale(alpha float64) *PMF {
	out := m.clone()
	for i := range out.ps {
		out.ps[i] *= alpha
	}
	return out
}

func (m *PMF) clone() *PMF {
	out := &PMF{}
	out.Grow(len(m.xs))
	out.xs = append(out.xs, m.xs...)
	out.ps = append(out.ps, m.ps...)
	return out
}

// Merge adds all mass from other into m (in place).
func (m *PMF) Merge(other *PMF) {
	if other == nil {
		return
	}
	for i, x := range other.xs {
		m.Add(x, other.ps[i])
	}
}

// CDFAt returns the cumulative probability P[X <= x].
func (m *PMF) CDFAt(x float64) float64 {
	var s float64
	for i, pt := range m.xs {
		if !(pt <= x) {
			break
		}
		s += m.ps[i]
	}
	return s
}

// Quantile returns the smallest support point q with CDF(q) >= level. It
// returns an error for an empty PMF or a level above the total mass.
func (m *PMF) Quantile(level float64) (float64, error) {
	if m.Len() == 0 {
		return 0, errors.New("stats: quantile of empty PMF")
	}
	var cum float64
	for i, x := range m.xs {
		cum += m.ps[i]
		if cum >= level-1e-12 {
			return x, nil
		}
	}
	return 0, fmt.Errorf("stats: quantile level %v above total mass %v", level, m.Total())
}

// String renders the PMF as "x:p" pairs in support order.
func (m *PMF) String() string {
	s := ""
	for i, x := range m.xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%g:%.6g", x, m.ps[i])
	}
	return s
}
