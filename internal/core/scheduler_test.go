package core

import (
	"math"
	"testing"
)

func TestOptimizeScheduleBeatsEtaAOnBottleneck(t *testing.T) {
	// eta_a has a 421 ms bottleneck (path 10); the optimizer must find a
	// schedule with a strictly smaller worst-path delay — at least as
	// good as the paper's manual eta_b (~318 ms).
	net, _, _ := typicalSetup(t)
	res, err := OptimizeSchedule(net, 1, MaxExpectedDelay, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score >= 421 {
		t.Errorf("optimized bottleneck %v should beat eta_a's 421 ms", res.Score)
	}
	if res.Score > 318.5 {
		t.Errorf("optimized bottleneck %v should be at least as good as eta_b's ~318 ms", res.Score)
	}
	if res.Evaluations < 2 {
		t.Errorf("evaluations = %d, expected a real search", res.Evaluations)
	}
	if len(res.Order) != 10 || res.Schedule == nil {
		t.Error("result incomplete")
	}
	// The returned schedule must actually achieve the reported score.
	a, err := New(net, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(MaxExpectedDelay(na)-res.Score) > 1e-9 {
		t.Errorf("schedule achieves %v, reported %v", MaxExpectedDelay(na), res.Score)
	}
}

func TestOptimizeScheduleMeanObjectiveKeepsEtaA(t *testing.T) {
	// eta_a (shortest-first) already minimizes the mean among priority
	// schedules of this form; the optimizer must not do worse than its
	// 235 ms.
	net, _, _ := typicalSetup(t)
	meanDelay := func(na *NetworkAnalysis) float64 { return na.OverallMeanDelayMS }
	res, err := OptimizeSchedule(net, 1, meanDelay, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score > 235.5 {
		t.Errorf("optimized mean %v should not exceed eta_a's ~235.4 ms", res.Score)
	}
}

func TestOptimizeScheduleBudget(t *testing.T) {
	net, _, _ := typicalSetup(t)
	res, err := OptimizeSchedule(net, 1, MaxExpectedDelay, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 3 {
		t.Errorf("evaluations = %d, budget was 3", res.Evaluations)
	}
	if res.Schedule == nil {
		t.Error("even a budgeted search must return its best schedule")
	}
}

func TestOptimizeScheduleValidation(t *testing.T) {
	net, _, _ := typicalSetup(t)
	if _, err := OptimizeSchedule(nil, 1, MaxExpectedDelay, 0); err == nil {
		t.Error("nil network should error")
	}
	if _, err := OptimizeSchedule(net, 1, nil, 0); err == nil {
		t.Error("nil objective should error")
	}
	if _, err := OptimizeSchedule(net, 1, MaxExpectedDelay, -1); err == nil {
		t.Error("negative budget should error")
	}
}

func TestObjectives(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxExpectedDelay(na); math.Abs(got-421.4) > 1 {
		t.Errorf("MaxExpectedDelay = %v, want ~421.4", got)
	}
}
