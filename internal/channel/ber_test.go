package channel

import (
	"math"
	"testing"
)

func TestBEROQPSKPaperValues(t *testing.T) {
	// Section VI-E: BER3 = 0.5 erfc(sqrt(7)) = 9.14e-5 and
	// BER4 = 0.5 erfc(sqrt(6)) = 2.66e-4.
	tests := []struct {
		ebN0 float64
		want float64
		tol  float64
	}{
		{ebN0: 7, want: 9.14e-5, tol: 5e-7},
		{ebN0: 6, want: 2.66e-4, tol: 5e-7},
	}
	for _, tt := range tests {
		got, err := BEROQPSK(tt.ebN0)
		if err != nil {
			t.Fatalf("BEROQPSK(%v) error: %v", tt.ebN0, err)
		}
		if math.Abs(got-tt.want) > tt.tol {
			t.Errorf("BEROQPSK(%v) = %v, want %v", tt.ebN0, got, tt.want)
		}
	}
}

func TestBERInvalidSNR(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := BEROQPSK(bad); err == nil {
			t.Errorf("BEROQPSK(%v) should error", bad)
		}
	}
}

func TestBERZeroSNR(t *testing.T) {
	got, err := BEROQPSK(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("BEROQPSK(0) = %v, want 0.5 (coin flip)", got)
	}
}

func TestMessageFailureProbPaperValues(t *testing.T) {
	// Section V-B: BER = 1e-4 and L = 1016 bits gives p_fl = 0.0966.
	// Section VI-E: BER3 = 9.14e-5 -> 0.089, BER4 = 2.66e-4 -> 0.237.
	tests := []struct {
		ber  float64
		want float64
		tol  float64
	}{
		{ber: 1e-4, want: 0.0966, tol: 5e-4},
		{ber: 9.14e-5, want: 0.089, tol: 5e-4},
		{ber: 2.66e-4, want: 0.237, tol: 5e-4},
		{ber: 2e-4, want: 0.1838, tol: 5e-4},
		{ber: 3e-4, want: 0.2627, tol: 5e-4},
		{ber: 5e-5, want: 0.0495, tol: 5e-4},
	}
	for _, tt := range tests {
		got, err := MessageFailureProb(tt.ber, DefaultMessageBits)
		if err != nil {
			t.Fatalf("MessageFailureProb(%v) error: %v", tt.ber, err)
		}
		if math.Abs(got-tt.want) > tt.tol {
			t.Errorf("MessageFailureProb(%v, 1016) = %v, want %v", tt.ber, got, tt.want)
		}
	}
}

func TestMessageFailureProbEdges(t *testing.T) {
	p, err := MessageFailureProb(0, 1016)
	if err != nil || p != 0 {
		t.Errorf("BER=0 should give p_fl=0: %v, %v", p, err)
	}
	p, err = MessageFailureProb(1, 1016)
	if err != nil || p != 1 {
		t.Errorf("BER=1 should give p_fl=1: %v, %v", p, err)
	}
	if _, err := MessageFailureProb(-0.1, 10); err == nil {
		t.Error("negative BER should error")
	}
	if _, err := MessageFailureProb(0.1, 0); err == nil {
		t.Error("zero-length message should error")
	}
	if _, err := MessageFailureProb(math.NaN(), 10); err == nil {
		t.Error("NaN BER should error")
	}
}

func TestBERMonotoneInSNR(t *testing.T) {
	prev := 1.0
	for ebN0 := 0.0; ebN0 <= 12; ebN0 += 0.5 {
		ber, err := BEROQPSK(ebN0)
		if err != nil {
			t.Fatal(err)
		}
		if ber > prev {
			t.Errorf("BER must decrease with SNR: BER(%v) = %v > %v", ebN0, ber, prev)
		}
		prev = ber
	}
}
