package channel

import (
	"math"
	"testing"
)

func TestBudgetFromEbN0PaperTable4(t *testing.T) {
	// Section VI-E: Eb/N0=7 -> BER 9.14e-5 -> p_fl 0.089;
	// Eb/N0=6 -> BER 2.66e-4 -> p_fl 0.237.
	b3, err := BudgetFromEbN0(7, DefaultMessageBits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b3.BER-9.14e-5) > 5e-7 {
		t.Errorf("BER at Eb/N0=7: %v, want 9.14e-5", b3.BER)
	}
	if math.Abs(b3.FailureProb-0.089) > 5e-4 {
		t.Errorf("p_fl at Eb/N0=7: %v, want 0.089", b3.FailureProb)
	}
	b4, err := BudgetFromEbN0(6, DefaultMessageBits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b4.FailureProb-0.237) > 5e-4 {
		t.Errorf("p_fl at Eb/N0=6: %v, want 0.237", b4.FailureProb)
	}
}

func TestBudgetFromEbN0Errors(t *testing.T) {
	if _, err := BudgetFromEbN0(-1, 1016); err == nil {
		t.Error("negative SNR should error")
	}
	if _, err := BudgetFromEbN0(7, 0); err == nil {
		t.Error("zero-length message should error")
	}
}
