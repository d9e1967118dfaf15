package pathmodel

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"wirelesshart/internal/link"
)

// TestBindBatchSolveBatchMatchesScalar pins batch-vs-scalar equivalence:
// K scenarios bound in one BindBatch and solved in one SolveBatch must
// match K independent Bind+Solve runs bit for bit on every result field,
// at K=1 and K>1, including time-varying availabilities (DownDuring
// windows and permanent failures, which exercise the per-attempt-slot
// evaluation). The engine's path-result memo depends on this: a path
// solved in a lock-step batch is shared with scenarios that would have
// solved it alone.
func TestBindBatchSolveBatchMatchesScalar(t *testing.T) {
	slots := []int{1, 2, 3}
	const fup, is, ttl = 7, 3, 14
	st, err := BuildStructure(slots, fup, is, ttl)
	if err != nil {
		t.Fatal(err)
	}
	byName := bindScenarios(t)
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, width := range []int{1, len(names)} {
		scenarios := make([][]link.Availability, 0, width)
		for _, name := range names[:width] {
			scenarios = append(scenarios, byName[name])
		}
		models, err := st.BindBatch(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := SolveBatch(models)
		if err != nil {
			t.Fatal(err)
		}
		for j, avails := range scenarios {
			scalarModel, err := st.Bind(avails)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scalarModel.Solve()
			if err != nil {
				t.Fatal(err)
			}
			got := batched[j]
			if len(got.CycleProbs) != len(want.CycleProbs) {
				t.Fatalf("%s: %d cycle probs, want %d", names[j], len(got.CycleProbs), len(want.CycleProbs))
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			for i := range got.CycleProbs {
				if !same(got.CycleProbs[i], want.CycleProbs[i]) {
					t.Errorf("K=%d %s cycle %d: batch %v vs scalar %v", width, names[j], i, got.CycleProbs[i], want.CycleProbs[i])
				}
			}
			if !same(got.DiscardProb, want.DiscardProb) {
				t.Errorf("K=%d %s: discard %v vs %v", width, names[j], got.DiscardProb, want.DiscardProb)
			}
			if !same(got.ExpectedAttempts, want.ExpectedAttempts) {
				t.Errorf("K=%d %s: attempts %v vs %v", width, names[j], got.ExpectedAttempts, want.ExpectedAttempts)
			}
			if got.Fup != want.Fup || got.Is != want.Is || got.Hops != want.Hops {
				t.Errorf("%s: config echo mismatch", names[j])
			}
			for i, a := range want.GoalAges {
				if got.GoalAges[i] != a {
					t.Errorf("%s: goal age %d is %d, want %d", names[j], i, got.GoalAges[i], a)
				}
			}
		}
	}
}

func TestBindBatchErrors(t *testing.T) {
	st, err := BuildStructure([]int{1, 2}, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.BindBatch(nil); err == nil {
		t.Error("empty bind batch accepted")
	}
	lm, err := link.FromAvailability(0.83, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	good := []link.Availability{lm.Steady(), lm.Steady()}
	if _, err := st.BindBatch([][]link.Availability{good, {lm.Steady()}}); err == nil {
		t.Error("hop-count mismatch in scenario 1 accepted")
	}
}

func TestSolveBatchErrors(t *testing.T) {
	st, err := BuildStructure([]int{1, 2}, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := link.FromAvailability(0.83, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Bind([]link.Availability{lm.Steady(), lm.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveBatch(nil); err == nil {
		t.Error("empty solve batch accepted")
	}
	if _, err := SolveBatch([]*Model{m, nil}); err == nil {
		t.Error("nil model accepted")
	}
	other, err := BuildStructure([]int{1, 2}, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	om, err := other.Bind([]link.Availability{lm.Steady(), lm.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveBatch([]*Model{m, om}); err == nil {
		t.Error("mixed-structure batch accepted")
	}
}

// TestSharedKernelConcurrentSolves pins that a bound kernel is an
// immutable matrix, safe to share: 8 goroutines step one bound model
// through Transient (Solve) while 8 more step it, beside a second scenario,
// through TransientBatch (SolveBatch) on the same Structure's base kernel.
// Every goroutine must reproduce the serial results bit for bit.
func TestSharedKernelConcurrentSolves(t *testing.T) {
	st, err := BuildStructure([]int{3, 6, 7}, 7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := link.FromAvailability(0.83, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	window, err := lm.DownDuring(2, 9, lm.Steady())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := st.Bind([]link.Availability{lm.Steady(), lm.Steady(), lm.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	other, err := st.Bind([]link.Availability{lm.Steady(), window, lm.Steady()})
	if err != nil {
		t.Fatal(err)
	}
	wantScalar, err := shared.Solve()
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := SolveBatch([]*Model{shared, other})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	errs := make(chan error, 2*goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := shared.Solve()
			if err == nil && !reflect.DeepEqual(res, wantScalar) {
				err = fmt.Errorf("concurrent Solve = %+v, serial %+v", res, wantScalar)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			res, err := SolveBatch([]*Model{shared, other})
			if err == nil && !reflect.DeepEqual(res, wantBatch) {
				err = fmt.Errorf("concurrent SolveBatch = %+v, serial %+v", res, wantBatch)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
