package stats

import (
	"errors"
	"math"
)

// Summary accumulates samples with Welford's online algorithm, providing
// mean, variance, and normal-approximation confidence intervals. The zero
// value is ready for use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe adds a sample.
func (s *Summary) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of samples observed.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (zero for no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observed sample (zero for no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observed sample (zero for no samples).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance. It requires at least two
// samples.
func (s *Summary) Variance() (float64, error) {
	if s.n < 2 {
		return 0, errors.New("stats: variance requires at least two samples")
	}
	return s.m2 / float64(s.n-1), nil
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() (float64, error) {
	v, err := s.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// ConfidenceInterval returns the half-width of the normal-approximation
// confidence interval at the given z score (1.96 for 95%). The interval is
// mean ± halfWidth.
func (s *Summary) ConfidenceInterval(z float64) (halfWidth float64, err error) {
	sd, err := s.StdDev()
	if err != nil {
		return 0, err
	}
	return z * sd / math.Sqrt(float64(s.n)), nil
}

// Z95 is the two-sided 95% normal quantile used for simulator confidence
// intervals.
const Z95 = 1.959963984540054

// Proportion tracks a Bernoulli success rate with a Wald confidence
// interval. The zero value is ready for use.
type Proportion struct {
	successes, trials int
}

// Observe records one trial.
func (p *Proportion) Observe(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// ObserveN records n trials with k successes.
func (p *Proportion) ObserveN(k, n int) {
	p.successes += k
	p.trials += n
}

// Estimate returns the success fraction (zero for no trials).
func (p *Proportion) Estimate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// ConfidenceInterval returns the Wald half-width at z.
func (p *Proportion) ConfidenceInterval(z float64) (float64, error) {
	if p.trials == 0 {
		return 0, errors.New("stats: confidence interval requires at least one trial")
	}
	est := p.Estimate()
	return z * math.Sqrt(est*(1-est)/float64(p.trials)), nil
}
