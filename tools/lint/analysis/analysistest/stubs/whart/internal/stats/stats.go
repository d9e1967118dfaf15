// Stub of the real internal/stats surface the analyzers watch.
package stats

// PMF is the probability-mass-function stub.
type PMF struct{}

// Quantile mirrors the real level parameter.
func (p *PMF) Quantile(level float64) (float64, error) {
	_ = level
	return 0, nil
}

// Percentile mirrors the real quantile-level parameter.
func Percentile(sample []float64, q float64) (float64, error) {
	_ = q
	if len(sample) == 0 {
		return 0, nil
	}
	return sample[0], nil
}

// GeometricMean mirrors the real success-probability parameter.
func GeometricMean(p float64) (float64, error) {
	_ = p
	return 0, nil
}

// NegBinomialCycles mirrors the real per-slot success probability ps.
func NegBinomialCycles(n int, ps float64, i int) (float64, error) {
	_, _, _ = n, ps, i
	return 0, nil
}

// NegBinomialReachability mirrors the real per-slot success probability ps.
func NegBinomialReachability(n int, ps float64, cycles int) (float64, error) {
	_, _, _ = n, ps, cycles
	return 0, nil
}
