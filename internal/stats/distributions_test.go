package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometricMean(t *testing.T) {
	// Paper Section V: E[N] = 1/(1-R). With R = 0.9624 a loss occurs on
	// average every ~26.6 reporting intervals.
	m, err := GeometricMean(1 - 0.9624)
	if err != nil {
		t.Fatalf("GeometricMean() error: %v", err)
	}
	if math.Abs(m-26.6) > 0.05 {
		t.Errorf("GeometricMean(1-0.9624) = %v, want ~26.6", m)
	}
	if _, err := GeometricMean(0); err == nil {
		t.Error("p=0 should error")
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{n: 0, k: 0, want: 1},
		{n: 5, k: 0, want: 1},
		{n: 5, k: 5, want: 1},
		{n: 5, k: 2, want: 10},
		{n: 4, k: 2, want: 6},
		{n: 5, k: 3, want: 10},
		{n: 10, k: 5, want: 252},
		{n: 5, k: 6, want: 0},
		{n: 5, k: -1, want: 0},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d, %d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestNegBinomialCyclesPaperFig6(t *testing.T) {
	// Fig. 6: 3-hop path, ps = 0.75, Is = 4 gives goal-state probabilities
	// 0.4219, 0.3164, 0.1582, 0.06592.
	want := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	for i, w := range want {
		got, err := NegBinomialCycles(3, 0.75, i+1)
		if err != nil {
			t.Fatalf("NegBinomialCycles error: %v", err)
		}
		if math.Abs(got-w) > 5e-5 {
			t.Errorf("cycle %d: got %v, want %v", i+1, got, w)
		}
	}
}

func TestNegBinomialReachabilityPaperFig8(t *testing.T) {
	// Fig. 8: 3-hop path reachability for the paper's availability sweep.
	tests := []struct {
		ps   float64
		want float64
	}{
		{ps: 0.693, want: 0.924},
		{ps: 0.774, want: 0.9737},
		{ps: 0.83, want: 0.9907},
		{ps: 0.903, want: 0.9989},
		{ps: 0.948, want: 0.9999},
	}
	for _, tt := range tests {
		got, err := NegBinomialReachability(3, tt.ps, 4)
		if err != nil {
			t.Fatalf("NegBinomialReachability error: %v", err)
		}
		if math.Abs(got-tt.want) > 5e-4 {
			t.Errorf("ps=%v: got %v, want %v", tt.ps, got, tt.want)
		}
	}
}

func TestNegBinomialReachabilityPaperFig10(t *testing.T) {
	// Fig. 10: hop count sweep at ps = 0.83.
	tests := []struct {
		hops int
		want float64
	}{
		{hops: 1, want: 0.9992},
		{hops: 2, want: 0.9964},
		{hops: 3, want: 0.9907},
		{hops: 4, want: 0.9812},
	}
	for _, tt := range tests {
		got, err := NegBinomialReachability(tt.hops, 0.83, 4)
		if err != nil {
			t.Fatalf("NegBinomialReachability error: %v", err)
		}
		if math.Abs(got-tt.want) > 5e-4 {
			t.Errorf("hops=%d: got %v, want %v", tt.hops, got, tt.want)
		}
	}
}

func TestNegBinomialErrors(t *testing.T) {
	if _, err := NegBinomialCycles(0, 0.5, 1); err == nil {
		t.Error("zero hops should error")
	}
	if _, err := NegBinomialCycles(1, 0.5, 0); err == nil {
		t.Error("cycle 0 should error")
	}
	if _, err := NegBinomialCycles(1, 1.5, 1); err == nil {
		t.Error("ps > 1 should error")
	}
	if _, err := NegBinomialReachability(1, -1, 4); err == nil {
		t.Error("negative ps should error")
	}
}

func TestNegBinomialMonotonicity(t *testing.T) {
	// Reachability increases with ps and with cycles, decreases with hops.
	f := func(a float64, hops, cycles uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		ps := math.Abs(math.Mod(a, 0.8)) + 0.1
		n := int(hops%4) + 1
		c := int(cycles%4) + 1
		r, err := NegBinomialReachability(n, ps, c)
		if err != nil {
			return false
		}
		rMorePs, _ := NegBinomialReachability(n, math.Min(ps+0.1, 1), c)
		rMoreHops, _ := NegBinomialReachability(n+1, ps, c)
		rMoreCycles, _ := NegBinomialReachability(n, ps, c+1)
		return rMorePs >= r-1e-12 && rMoreHops <= r+1e-12 && rMoreCycles >= r-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
