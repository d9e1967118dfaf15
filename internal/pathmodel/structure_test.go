package pathmodel

import (
	"math"
	"testing"

	"wirelesshart/internal/link"
)

// bindScenarios returns named availability vectors for a 3-hop path
// covering the scenario families the rebind path must reproduce exactly:
// homogeneous steady links, a transient down window (DownDuring), and a
// permanent failure.
func bindScenarios(t *testing.T) map[string][]link.Availability {
	t.Helper()
	lm, err := link.FromAvailability(0.83, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := link.FromAvailability(0.6, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	window, err := lm.DownDuring(5, 15, lm.Steady())
	if err != nil {
		t.Fatal(err)
	}
	weakFromDown := func(slot int) float64 { return weak.TransientUp(0, slot) }
	return map[string][]link.Availability{
		"homogeneous": {lm.Steady(), lm.Steady(), lm.Steady()},
		"mixed":       {lm.Steady(), weak.Steady(), weakFromDown},
		"DownDuring":  {lm.Steady(), window, lm.Steady()},
		"PermanentDown": {
			lm.Steady(), link.PermanentDown(), lm.Steady(),
		},
	}
}

// TestStructureBindMatchesBuild binds one shared structure to every
// scenario in sequence and pins each bound model's solution against a
// fresh Build of the same configuration to 1e-12: earlier binds must not
// leak into later ones, and the cached skeleton must be indistinguishable
// from a full rebuild.
func TestStructureBindMatchesBuild(t *testing.T) {
	slots := []int{1, 2, 3}
	const fup, is, ttl = 7, 3, 14
	st, err := BuildStructure(slots, fup, is, ttl)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := bindScenarios(t)
	// Two passes over the scenarios: the second pass re-binds a structure
	// every scenario has already flowed through.
	for pass := 0; pass < 2; pass++ {
		for name, avails := range scenarios {
			bound, err := st.Bind(avails)
			if err != nil {
				t.Fatalf("pass %d %s: Bind: %v", pass, name, err)
			}
			fresh, err := Build(Config{Slots: slots, Fup: fup, Is: is, TTL: ttl, Links: avails})
			if err != nil {
				t.Fatalf("pass %d %s: Build: %v", pass, name, err)
			}
			got, err := bound.Solve()
			if err != nil {
				t.Fatalf("pass %d %s: bound Solve: %v", pass, name, err)
			}
			want, err := fresh.Solve()
			if err != nil {
				t.Fatalf("pass %d %s: fresh Solve: %v", pass, name, err)
			}
			if len(got.CycleProbs) != len(want.CycleProbs) {
				t.Fatalf("pass %d %s: %d cycles, want %d", pass, name, len(got.CycleProbs), len(want.CycleProbs))
			}
			for i := range got.CycleProbs {
				if d := math.Abs(got.CycleProbs[i] - want.CycleProbs[i]); d > 1e-12 {
					t.Errorf("pass %d %s: cycle %d diverges by %v", pass, name, i+1, d)
				}
			}
			if d := math.Abs(got.DiscardProb - want.DiscardProb); d > 1e-12 {
				t.Errorf("pass %d %s: discard diverges by %v", pass, name, d)
			}
			if d := math.Abs(got.ExpectedAttempts - want.ExpectedAttempts); d > 1e-12 {
				t.Errorf("pass %d %s: attempts diverge by %v", pass, name, d)
			}
		}
	}
}

// TestStructureBoundModelsAreIndependent checks that a later Bind does not
// alias or disturb an earlier bound model's values.
func TestStructureBoundModelsAreIndependent(t *testing.T) {
	st, err := BuildStructure([]int{1, 2}, 7, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lm, _ := link.FromAvailability(0.83, 0.9)
	good := []link.Availability{lm.Steady(), lm.Steady()}
	first, err := st.Bind(good)
	if err != nil {
		t.Fatal(err)
	}
	before, err := first.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Bind([]link.Availability{lm.Steady(), link.PermanentDown()}); err != nil {
		t.Fatal(err)
	}
	after, err := first.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if before.Reachability() != after.Reachability() {
		t.Errorf("earlier bound model changed: %v -> %v", before.Reachability(), after.Reachability())
	}
}

func TestStructureBindValidation(t *testing.T) {
	st, err := BuildStructure([]int{1, 2}, 7, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lm, _ := link.FromAvailability(0.83, 0.9)
	steady := lm.Steady()
	if _, err := st.Bind([]link.Availability{steady}); err == nil {
		t.Error("wrong availability count should error")
	}
	if _, err := st.Bind([]link.Availability{steady, nil}); err == nil {
		t.Error("nil availability should error")
	}
	bad := func(t int) float64 { return 1.5 }
	if _, err := st.Bind([]link.Availability{steady, bad}); err == nil {
		t.Error("out-of-range availability should error")
	}
}

// TestBindRejectsNonFiniteAvailabilities pins that NaN and ±Inf
// availabilities are errors, not NaN measures: on every hop, and also on
// a hop behind a permanently failed one, whose attempts carry no mass.
func TestBindRejectsNonFiniteAvailabilities(t *testing.T) {
	lm, err := link.FromAvailability(0.83, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := func(int) float64 { return v }
		// Hop 2 transmits in slots 6 and 13: bad in its second cycle only.
		badAt13 := func(slot int) float64 {
			if slot == 13 {
				return v
			}
			return 0.5
		}
		for name, avails := range map[string][]link.Availability{
			"first hop":     {bad, lm.Steady(), lm.Steady()},
			"last hop":      {lm.Steady(), lm.Steady(), bad},
			"zero-mass hop": {link.PermanentDown(), bad, lm.Steady()},
			"one bad slot":  {lm.Steady(), badAt13, lm.Steady()},
			"every hop":     {bad, bad, bad},
		} {
			cfg := Config{Slots: []int{3, 6, 7}, Fup: 7, Is: 2, Links: avails}
			if m, err := Build(cfg); err == nil {
				res, _ := m.Solve()
				t.Errorf("availability %v on %s: Build accepted it (result %+v)", v, name, res)
			}
		}
	}
}

func TestStructKeyDistinguishesGeometry(t *testing.T) {
	keys := map[string]string{
		"base":        StructKey([]int{1, 2, 3}, 7, 3, 0),
		"other slots": StructKey([]int{1, 2, 4}, 7, 3, 0),
		"other frame": StructKey([]int{1, 2, 3}, 8, 3, 0),
		"other is":    StructKey([]int{1, 2, 3}, 7, 4, 0),
		"other ttl":   StructKey([]int{1, 2, 3}, 7, 3, 14),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collide on key %q", name, prev, k)
		}
		seen[k] = name
	}
	st, err := BuildStructure([]int{1, 2, 3}, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Key() != keys["base"] {
		t.Errorf("Structure.Key() = %q, want %q", st.Key(), keys["base"])
	}
}
