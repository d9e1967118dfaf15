package stats

import (
	"fmt"
	"math"
)

// GeometricMean returns E[N] = 1/p, the paper's expected number of
// reporting intervals until the first loss (E[N] = 1/(1-R)).
func GeometricMean(p float64) (float64, error) {
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("stats: geometric parameter %v out of (0,1]", p)
	}
	return 1 / p, nil
}

// Binomial returns the binomial coefficient C(n, k) as a float64. It
// returns zero for k < 0 or k > n.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

// NegBinomialCycles returns the probability that a message on an n-hop path
// with independent per-hop success probability ps arrives in cycle i (one
// attempt per hop per cycle, progress kept between cycles):
//
//	P(cycle i) = C(n+i-2, i-1) ps^n (1-ps)^(i-1)
//
// This is the closed form underlying the paper's homogeneous steady-state
// evaluations (Figs. 6, 8, 10) and is used to cross-validate the DTMC.
func NegBinomialCycles(n int, ps float64, i int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("stats: path needs at least one hop, got %d", n)
	}
	if i < 1 {
		return 0, fmt.Errorf("stats: cycles start at 1, got %d", i)
	}
	if ps < 0 || ps > 1 {
		return 0, fmt.Errorf("stats: success probability %v out of [0,1]", ps)
	}
	return Binomial(n+i-2, i-1) * math.Pow(ps, float64(n)) * math.Pow(1-ps, float64(i-1)), nil
}

// NegBinomialReachability returns the probability that an n-hop message
// arrives within cycles reporting cycles: the sum of NegBinomialCycles over
// i = 1..cycles.
func NegBinomialReachability(n int, ps float64, cycles int) (float64, error) {
	var r float64
	for i := 1; i <= cycles; i++ {
		p, err := NegBinomialCycles(n, ps, i)
		if err != nil {
			return 0, err
		}
		r += p
	}
	return r, nil
}
