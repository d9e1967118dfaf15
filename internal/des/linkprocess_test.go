package des

import (
	"math"
	"math/rand"
	"testing"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/link"
)

// gilbertFrom returns a Gilbert process that starts UP at slot 0 with
// probability initUp: 0 and 1 pin the slot-0 state, which isolates the
// per-slot UP/DOWN transitions of Up.
func gilbertFrom(m link.Model, initUp float64) *GilbertProcess {
	return &GilbertProcess{model: m, initUp: initUp}
}

func TestGilbertSteadyEmpiricalAvailability(t *testing.T) {
	m, err := link.New(0.184, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	proc := NewGilbertSteady(m)
	rng := rand.New(rand.NewSource(4))
	const intervals, slots = 2000, 20
	up := 0
	for i := 0; i < intervals; i++ {
		proc.Reset(rng)
		for s := 1; s <= slots; s++ {
			if proc.Up(s, rng) {
				up++
			}
		}
	}
	got := float64(up) / float64(intervals*slots)
	if math.Abs(got-m.SteadyUp()) > 0.01 {
		t.Errorf("empirical availability %v, want ~%v", got, m.SteadyUp())
	}
}

func TestGilbertStartingDownRecovery(t *testing.T) {
	// From DOWN, the slot-1 state is UP with probability p_rc (Fig. 17).
	m, _ := link.New(0.184, 0.9)
	proc := gilbertFrom(m, 0)
	rng := rand.New(rand.NewSource(5))
	const n = 100000
	up := 0
	for i := 0; i < n; i++ {
		proc.Reset(rng)
		if proc.Up(1, rng) {
			up++
		}
	}
	got := float64(up) / n
	if math.Abs(got-0.9) > 0.005 {
		t.Errorf("P(up at slot 1 | down at 0) = %v, want ~0.9", got)
	}
}

func TestGilbertStartingUpFirstSlot(t *testing.T) {
	m, _ := link.New(0.184, 0.9)
	proc := gilbertFrom(m, 1)
	rng := rand.New(rand.NewSource(6))
	const n = 100000
	up := 0
	for i := 0; i < n; i++ {
		proc.Reset(rng)
		if proc.Up(1, rng) {
			up++
		}
	}
	got := float64(up) / n
	if math.Abs(got-(1-0.184)) > 0.005 {
		t.Errorf("P(up at slot 1 | up at 0) = %v, want ~%v", got, 1-0.184)
	}
}

func TestGilbertSkipsToRequestedSlot(t *testing.T) {
	// Requesting a later slot must advance the chain the right number of
	// steps: from DOWN, P(up at slot 6) ~ steady state.
	m, _ := link.New(0.184, 0.9)
	proc := gilbertFrom(m, 0)
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	up := 0
	for i := 0; i < n; i++ {
		proc.Reset(rng)
		if proc.Up(6, rng) {
			up++
		}
	}
	want := m.TransientUp(0, 6)
	got := float64(up) / n
	if math.Abs(got-want) > 0.005 {
		t.Errorf("P(up at slot 6 | down at 0) = %v, want ~%v", got, want)
	}
}

func TestHoppingProcessUniformChannels(t *testing.T) {
	// All 16 channels at the same SNR: availability equals 1 - p_fl.
	snrs := make([]float64, channel.NumChannels)
	for i := range snrs {
		snrs[i] = 6
	}
	rng := rand.New(rand.NewSource(8))
	proc, err := NewHoppingProcess(snrs, 1016, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	budget, _ := channel.BudgetFromEbN0(6, 1016)
	const n = 200000
	up := 0
	for i := 0; i < n; i++ {
		if proc.Up(i, rng) {
			up++
		}
	}
	got := float64(up) / n
	want := 1 - budget.FailureProb
	if math.Abs(got-want) > 0.005 {
		t.Errorf("hopping availability = %v, want ~%v", got, want)
	}
}

func TestHoppingProcessBlacklistImproves(t *testing.T) {
	// Half the channels are terrible; blacklisting them raises the
	// delivery rate.
	snrs := make([]float64, channel.NumChannels)
	bl := channel.NewBlacklist()
	for i := range snrs {
		if i < 8 {
			snrs[i] = 0.5 // nearly useless
			if err := bl.Ban(i); err != nil {
				t.Fatal(err)
			}
		} else {
			snrs[i] = 7
		}
	}
	run := func(blacklist *channel.Blacklist, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		proc, err := NewHoppingProcess(snrs, 1016, blacklist, rng)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50000
		up := 0
		for i := 0; i < n; i++ {
			if proc.Up(i, rng) {
				up++
			}
		}
		return float64(up) / n
	}
	without := run(nil, 9)
	with := run(bl, 9)
	if with <= without+0.2 {
		t.Errorf("blacklisting should raise availability: %v -> %v", without, with)
	}
}

func TestHoppingProcessValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewHoppingProcess([]float64{1, 2}, 1016, nil, rng); err == nil {
		t.Error("wrong SNR count should error")
	}
	snrs := make([]float64, channel.NumChannels)
	snrs[3] = -1
	if _, err := NewHoppingProcess(snrs, 1016, nil, rng); err == nil {
		t.Error("negative SNR should error")
	}
}

func TestForcedWindowProcess(t *testing.T) {
	m, _ := link.New(0, 0.9) // perfect link
	proc := &ForcedWindowProcess{Base: gilbertFrom(m, 1), From: 3, To: 6}
	rng := rand.New(rand.NewSource(2))
	proc.Reset(rng)
	for s := 1; s <= 10; s++ {
		up := proc.Up(s, rng)
		inWindow := s >= 3 && s < 6
		if inWindow && up {
			t.Errorf("slot %d: forced window should be down", s)
		}
		if !inWindow && !up {
			t.Errorf("slot %d: perfect link outside window should be up", s)
		}
	}
}
