package stats

import (
	"math"
	"testing"
)

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.N() != 8 {
		t.Fatalf("N() = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean() = %v, want 5", s.Mean())
	}
	v, err := s.Variance()
	if err != nil {
		t.Fatalf("Variance() error: %v", err)
	}
	if math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("Variance() = %v, want %v", v, 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryTooFewSamples(t *testing.T) {
	var s Summary
	if _, err := s.Variance(); err == nil {
		t.Error("Variance() with no samples should error")
	}
	s.Observe(1)
	if _, err := s.StdDev(); err == nil {
		t.Error("StdDev() with one sample should error")
	}
	if _, err := s.ConfidenceInterval(Z95); err == nil {
		t.Error("ConfidenceInterval() with one sample should error")
	}
	if s.Mean() != 1 {
		t.Errorf("Mean() = %v, want 1", s.Mean())
	}
}

func TestSummaryConfidenceShrinks(t *testing.T) {
	// The CI half-width must shrink roughly as 1/sqrt(n).
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Observe(float64(i % 10))
	}
	for i := 0; i < 10000; i++ {
		large.Observe(float64(i % 10))
	}
	ciSmall, err := small.ConfidenceInterval(Z95)
	if err != nil {
		t.Fatal(err)
	}
	ciLarge, err := large.ConfidenceInterval(Z95)
	if err != nil {
		t.Fatal(err)
	}
	if ciLarge >= ciSmall {
		t.Errorf("CI should shrink with more samples: %v vs %v", ciLarge, ciSmall)
	}
	ratio := ciSmall / ciLarge
	if math.Abs(ratio-10) > 0.5 {
		t.Errorf("CI ratio = %v, want ~10", ratio)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Errorf("empty Estimate() = %v, want 0", p.Estimate())
	}
	for i := 0; i < 100; i++ {
		p.Observe(i < 90)
	}
	if p.Estimate() != 0.9 {
		t.Errorf("Estimate() = %v, want 0.9", p.Estimate())
	}
	ci, err := p.ConfidenceInterval(Z95)
	if err != nil {
		t.Fatalf("ConfidenceInterval() error: %v", err)
	}
	want := Z95 * math.Sqrt(0.9*0.1/100)
	if math.Abs(ci-want) > 1e-12 {
		t.Errorf("ConfidenceInterval() = %v, want %v", ci, want)
	}
}

func TestProportionObserveN(t *testing.T) {
	var p Proportion
	p.ObserveN(7, 10)
	p.ObserveN(3, 10)
	if p.Estimate() != 0.5 {
		t.Errorf("Estimate() = %v, want 0.5", p.Estimate())
	}
	var empty Proportion
	if _, err := empty.ConfidenceInterval(Z95); err == nil {
		t.Error("ConfidenceInterval() with no trials should error")
	}
}
