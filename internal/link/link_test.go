package link

import (
	"math"
	"testing"
	"testing/quick"

	"wirelesshart/internal/channel"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name     string
		pfl, prc float64
		wantErr  bool
	}{
		{name: "valid", pfl: 0.1, prc: 0.9, wantErr: false},
		{name: "pfl zero", pfl: 0, prc: 0.9, wantErr: false},
		{name: "pfl one", pfl: 1, prc: 0.9, wantErr: false},
		{name: "prc one", pfl: 0.1, prc: 1, wantErr: false},
		{name: "pfl negative", pfl: -0.1, prc: 0.9, wantErr: true},
		{name: "pfl above one", pfl: 1.1, prc: 0.9, wantErr: true},
		{name: "prc zero", pfl: 0.1, prc: 0, wantErr: true},
		{name: "prc above one", pfl: 0.1, prc: 1.1, wantErr: true},
		{name: "pfl NaN", pfl: math.NaN(), prc: 0.9, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.pfl, tt.prc)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%v, %v) error = %v, wantErr %v", tt.pfl, tt.prc, err, tt.wantErr)
			}
		})
	}
}

func TestSteadyUpPaperValues(t *testing.T) {
	// Section V-B: BER = 1e-4 gives p_fl = 0.0966 and pi(up) = 0.9031.
	m, err := New(0.0966, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.SteadyUp()-0.9031) > 5e-5 {
		t.Errorf("SteadyUp() = %v, want 0.9031", m.SteadyUp())
	}
	if m.FailureProb() != 0.0966 || m.RecoveryProb() != 0.9 {
		t.Error("accessors wrong")
	}
}

func TestFromBERPaperPipeline(t *testing.T) {
	// BER sweep of Table I: each BER must give the listed availability.
	tests := []struct {
		ber  float64
		want float64
	}{
		{ber: 3e-4, want: 0.774},
		{ber: 2e-4, want: 0.830},
		{ber: 1e-4, want: 0.903},
		{ber: 5e-5, want: 0.948},
	}
	for _, tt := range tests {
		m, err := FromBER(tt.ber, channel.DefaultMessageBits, DefaultRecoveryProb)
		if err != nil {
			t.Fatalf("FromBER(%v) error: %v", tt.ber, err)
		}
		if math.Abs(m.SteadyUp()-tt.want) > 5e-4 {
			t.Errorf("FromBER(%v).SteadyUp() = %v, want %v", tt.ber, m.SteadyUp(), tt.want)
		}
	}
}

func TestFromBERInvalid(t *testing.T) {
	if _, err := FromBER(-1, 1016, 0.9); err == nil {
		t.Error("negative BER should error")
	}
}

func TestFromEbN0PaperPrediction(t *testing.T) {
	// Section VI-E: Eb/N0 = 7 -> p_fl = 0.089; Eb/N0 = 6 -> p_fl = 0.237.
	m3, err := FromEbN0(7, channel.DefaultMessageBits, DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m3.FailureProb()-0.089) > 5e-4 {
		t.Errorf("p_fl at Eb/N0=7: %v, want 0.089", m3.FailureProb())
	}
	m4, err := FromEbN0(6, channel.DefaultMessageBits, DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m4.FailureProb()-0.237) > 5e-4 {
		t.Errorf("p_fl at Eb/N0=6: %v, want 0.237", m4.FailureProb())
	}
	if _, err := FromEbN0(-1, 1016, 0.9); err == nil {
		t.Error("negative SNR should error")
	}
}

func TestFromAvailabilityRoundTrip(t *testing.T) {
	for _, avail := range []float64{0.693, 0.774, 0.83, 0.903, 0.948, 0.75} {
		m, err := FromAvailability(avail, DefaultRecoveryProb)
		if err != nil {
			t.Fatalf("FromAvailability(%v) error: %v", avail, err)
		}
		if math.Abs(m.SteadyUp()-avail) > 1e-12 {
			t.Errorf("round trip: SteadyUp() = %v, want %v", m.SteadyUp(), avail)
		}
	}
	if _, err := FromAvailability(0, 0.9); err == nil {
		t.Error("zero availability should error")
	}
	if _, err := FromAvailability(1.2, 0.9); err == nil {
		t.Error("availability > 1 should error")
	}
	// Low availabilities with high p_rc can demand p_fl > 1.
	if _, err := FromAvailability(0.3, 0.9); err == nil {
		t.Error("availability 0.3 with p_rc 0.9 needs p_fl = 2.1, should error")
	}
}

func TestPerfectLink(t *testing.T) {
	m, err := New(0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if m.SteadyUp() != 1 {
		t.Errorf("perfect link SteadyUp() = %v, want 1", m.SteadyUp())
	}
}

func TestAutocorrelation(t *testing.T) {
	m, err := New(0.1838, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 1 - 0.1838 - 0.9
	if got := m.Autocorrelation(0); got != 1 {
		t.Errorf("lag-0 = %v, want 1", got)
	}
	if got := m.Autocorrelation(1); math.Abs(got-lambda) > 1e-15 {
		t.Errorf("lag-1 = %v, want %v", got, lambda)
	}
	if got := m.Autocorrelation(2); math.Abs(got-lambda*lambda) > 1e-15 {
		t.Errorf("lag-2 = %v, want %v", got, lambda*lambda)
	}
	if got := m.Autocorrelation(-1); math.Abs(got-lambda) > 1e-15 {
		t.Errorf("negative lag should mirror: %v", got)
	}
	// At 20 slots apart (one frame), retries are effectively independent.
	if got := math.Abs(m.Autocorrelation(20)); got > 1e-20 {
		t.Errorf("lag-20 = %v, want ~0", got)
	}
}

func TestTransientUpFig17(t *testing.T) {
	// Fig. 17: from DOWN with p_fl=0.184 the link is at p_rc=0.9 after one
	// slot and at steady state (0.8303) within a few slots.
	m, err := New(0.184, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TransientUp(0, 0); got != 0 {
		t.Errorf("TransientUp(0,0) = %v, want 0", got)
	}
	if got := m.TransientUp(0, 1); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("TransientUp(0,1) = %v, want 0.9", got)
	}
	steady := m.SteadyUp()
	if got := m.TransientUp(0, 6); math.Abs(got-steady) > 1e-5 {
		t.Errorf("TransientUp(0,6) = %v, want ~%v", got, steady)
	}
	// And with p_fl = 0.05 as in the second curve of Fig. 17.
	m2, _ := New(0.05, 0.9)
	if got := m2.TransientUp(0, 6); math.Abs(got-m2.SteadyUp()) > 1e-5 {
		t.Errorf("p_fl=0.05: TransientUp(0,6) = %v, want ~%v", got, m2.SteadyUp())
	}
}

func TestTransientUpNegativeTime(t *testing.T) {
	m, _ := New(0.184, 0.9)
	if got := m.TransientUp(0.3, -5); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("negative t should clamp to 0: got %v", got)
	}
}

// stepChain checks that trans is row-stochastic within kstateTol, then
// runs p(s+1) = p(s) trans for steps steps from p0, calling observe(s,
// p(s)) for every s = 0..steps when observe is non-nil. It returns
// p(steps).
func stepChain(t *testing.T, trans [][]float64, p0 []float64, steps int, observe func(s int, p []float64)) []float64 {
	t.Helper()
	for i, row := range trans {
		var sum float64
		for _, q := range row {
			if !(q >= -kstateTol && q <= 1+kstateTol) {
				t.Fatalf("row %d value %v out of [0,1]", i, q)
			}
			sum += q
		}
		if math.Abs(sum-1) > kstateTol {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	p := append([]float64(nil), p0...)
	for s := 0; ; s++ {
		if observe != nil {
			observe(s, p)
		}
		if s == steps {
			return p
		}
		next := make([]float64, len(p))
		for i, mass := range p {
			for j, q := range trans[i] {
				next[j] += mass * q
			}
		}
		p = next
	}
}

func TestTransientUpMatchesChain(t *testing.T) {
	// The closed form must match stepping the paper's Fig. 3 DTMC, with
	// UP as state 0 and DOWN as state 1.
	m, _ := New(0.2627, 0.9)
	const up, down = 0, 1
	trans := [][]float64{
		{1 - m.FailureProb(), m.FailureProb()},
		{m.RecoveryProb(), 1 - m.RecoveryProb()},
	}
	p0 := make([]float64, 2)
	p0[down] = 1
	stepChain(t, trans, p0, 10, func(steps int, pt []float64) {
		if want := m.TransientUp(0, steps); math.Abs(pt[up]-want) > 1e-12 {
			t.Errorf("step %d: chain %v vs closed form %v", steps, pt[up], want)
		}
	})
}

func TestAvailabilityFunctions(t *testing.T) {
	m, _ := New(0.184, 0.9)
	steady := m.Steady()
	if steady(0) != m.SteadyUp() || steady(100) != m.SteadyUp() {
		t.Error("Steady() must be constant at SteadyUp()")
	}
	if got := m.TransientUp(0, 0); got != 0 {
		t.Errorf("TransientUp(0, 0) = %v, want 0", got)
	}
	if got := m.TransientUp(1, 0); got != 1 {
		t.Errorf("TransientUp(1, 0) = %v, want 1", got)
	}
	if got := m.TransientUp(1, 1); got != 1-0.184 {
		t.Errorf("TransientUp(1, 1) = %v, want %v", got, 1-0.184)
	}
}

func TestTransientConvergenceProperty(t *testing.T) {
	// From any starting probability, the transient converges to steady
	// state monotonically in |distance|.
	f := func(a, b, c uint8) bool {
		pfl := float64(a%99+1) / 100
		prc := float64(b%99+1) / 100
		u0 := float64(c) / 255
		m, err := New(pfl, prc)
		if err != nil {
			return false
		}
		steady := m.SteadyUp()
		prev := math.Abs(u0 - steady)
		for t := 1; t <= 20; t++ {
			d := math.Abs(m.TransientUp(u0, t) - steady)
			if d > prev+1e-12 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFailureKindString(t *testing.T) {
	if Transient.String() != "transient" ||
		RandomDuration.String() != "random-duration" ||
		Permanent.String() != "permanent" {
		t.Error("failure kind names wrong")
	}
	if FailureKind(9).String() != "FailureKind(9)" {
		t.Errorf("unknown kind String() = %q", FailureKind(9).String())
	}
}
