package link

import (
	"math"
	"testing"
)

func TestPermanentDown(t *testing.T) {
	av := PermanentDown()
	for _, slot := range []int{0, 1, 100, 10000} {
		if av(slot) != 0 {
			t.Errorf("PermanentDown()(%d) = %v, want 0", slot, av(slot))
		}
	}
}

func TestDownDuringWindow(t *testing.T) {
	m, err := New(0.184, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	av, err := m.DownDuring(5, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	steady := m.SteadyUp()
	if got := av(0); math.Abs(got-steady) > 1e-12 {
		t.Errorf("before window: %v, want steady %v", got, steady)
	}
	if got := av(4); math.Abs(got-steady) > 1e-12 {
		t.Errorf("slot 4 (before window): %v, want steady %v", got, steady)
	}
	for _, slot := range []int{5, 10, 24} {
		if av(slot) != 0 {
			t.Errorf("inside window slot %d: %v, want 0", slot, av(slot))
		}
	}
	// The first slot after the window already has one recovery
	// opportunity: P(up) = p_rc.
	if got := av(25); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("slot 25 (first slot after window) = %v, want 0.9", got)
	}
	if got := av(26); math.Abs(got-m.TransientUp(0, 2)) > 1e-12 {
		t.Errorf("slot 26 = %v, want %v", got, m.TransientUp(0, 2))
	}
	if got := av(40); math.Abs(got-steady) > 1e-4 {
		t.Errorf("long after window = %v, want ~steady %v", got, steady)
	}
}

func TestDownDuringCustomBase(t *testing.T) {
	m, _ := New(0.184, 0.9)
	base := func(int) float64 { return 0.42 }
	av, err := m.DownDuring(3, 6, base)
	if err != nil {
		t.Fatal(err)
	}
	if av(2) != 0.42 {
		t.Errorf("custom base before window: %v, want 0.42", av(2))
	}
}

func TestDownDuringValidation(t *testing.T) {
	m, _ := New(0.184, 0.9)
	if _, err := m.DownDuring(-1, 5, nil); err == nil {
		t.Error("negative from should error")
	}
	if _, err := m.DownDuring(5, 3, nil); err == nil {
		t.Error("to < from should error")
	}
}

func TestDownDuringEmptyWindow(t *testing.T) {
	m, _ := New(0.184, 0.9)
	av, err := m.DownDuring(5, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Empty window: slots < 5 are base; from slot 5 the link relaxes as
	// if it had been DOWN at slot 4, so slot 5 sees p_rc.
	if got := av(4); math.Abs(got-m.SteadyUp()) > 1e-12 {
		t.Errorf("slot 4 = %v, want steady", got)
	}
	if got := av(5); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("slot 5 = %v, want 0.9", got)
	}
}

func TestBlockedWindow(t *testing.T) {
	m, err := New(0.1838, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	av, err := Blocked(m.Steady(), 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	steady := m.SteadyUp()
	for _, slot := range []int{1, 10, 20} {
		if av(slot) != 0 {
			t.Errorf("slot %d inside window = %v, want 0", slot, av(slot))
		}
	}
	// No relaxation: the first slot after the window is back at steady
	// state (the paper-compatible Table III semantics).
	for _, slot := range []int{0, 21, 40} {
		if math.Abs(av(slot)-steady) > 1e-12 {
			t.Errorf("slot %d outside window = %v, want steady %v", slot, av(slot), steady)
		}
	}
}

func TestBlockedValidation(t *testing.T) {
	m, _ := New(0.1838, 0.9)
	if _, err := Blocked(nil, 1, 5); err == nil {
		t.Error("nil base should error")
	}
	if _, err := Blocked(m.Steady(), -1, 5); err == nil {
		t.Error("negative from should error")
	}
	if _, err := Blocked(m.Steady(), 5, 1); err == nil {
		t.Error("to < from should error")
	}
}
