package measures

import (
	"math"
	"testing"
	"testing/quick"
)

// convolve is the full discrete convolution of a and b, nil when either
// is empty: convolveTruncated at the full length len(a)+len(b)-1.
func convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return convolveTruncated(a, b, len(a)+len(b)-1)
}

func TestConvolveBasic(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want []float64
	}{
		{
			name: "two coins",
			a:    []float64{0.5, 0.5},
			b:    []float64{0.5, 0.5},
			want: []float64{0.25, 0.5, 0.25},
		},
		{
			name: "identity with point mass",
			a:    []float64{1},
			b:    []float64{0.2, 0.3, 0.5},
			want: []float64{0.2, 0.3, 0.5},
		},
		{
			name: "shift by one",
			a:    []float64{0, 1},
			b:    []float64{0.4, 0.6},
			want: []float64{0, 0.4, 0.6},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := convolve(tt.a, tt.b)
			if len(got) != len(tt.want) {
				t.Fatalf("len = %d, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if math.Abs(got[i]-tt.want[i]) > 1e-15 {
					t.Errorf("convolve()[%d] = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestConvolveEmpty(t *testing.T) {
	if got := convolve(nil, []float64{1}); got != nil {
		t.Errorf("convolve(nil, x) = %v, want nil", got)
	}
	if got := convolve([]float64{1}, nil); got != nil {
		t.Errorf("convolve(x, nil) = %v, want nil", got)
	}
	for _, got := range [][]float64{convolveTruncated(nil, []float64{1}, 2), convolveTruncated([]float64{1}, nil, 2)} {
		if len(got) != 2 || got[0] != 0 || got[1] != 0 {
			t.Errorf("convolveTruncated of an empty input = %v, want [0 0]", got)
		}
	}
}

// TestConvolveTruncatedMatchesFull checks that truncating inside the loop
// gives bit for bit the leading entries of the full convolution.
func TestConvolveTruncatedMatchesFull(t *testing.T) {
	f := func(a, b []float64, nRaw uint8) bool {
		n := int(nRaw % 64)
		full := make([]float64, len(a)+len(b))
		for i, ai := range a {
			if ai == 0 {
				continue
			}
			for j, bj := range b {
				full[i+j] += ai * bj
			}
		}
		got := convolveTruncated(a, b, n)
		if len(got) != n {
			return false
		}
		for k, v := range got {
			want := 0.0
			if k < len(full) {
				want = full[k]
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvolveTruncated(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{0.5, 0.5}
	got := convolveTruncated(a, b, 2)
	if len(got) != 2 || got[0] != 0.25 || got[1] != 0.5 {
		t.Errorf("convolveTruncated() = %v, want [0.25 0.5]", got)
	}
	// Padding when the full convolution is shorter than n.
	got = convolveTruncated([]float64{1}, []float64{1}, 3)
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Errorf("convolveTruncated() = %v, want [1 0 0]", got)
	}
	if got := convolveTruncated(a, b, -1); len(got) != 0 {
		t.Errorf("convolveTruncated(n=-1) = %v, want empty", got)
	}
}

func TestConvolveMassConservation(t *testing.T) {
	// The convolution of two (sub-)distributions has total mass equal to
	// the product of the input masses.
	f := func(ra, rb []float64) bool {
		if len(ra) == 0 || len(rb) == 0 || len(ra) > 50 || len(rb) > 50 {
			return true
		}
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		var sa, sb float64
		for i, x := range ra {
			a[i] = math.Abs(math.Mod(x, 1))
			sa += a[i]
		}
		for i, x := range rb {
			b[i] = math.Abs(math.Mod(x, 1))
			sb += b[i]
		}
		out := convolve(a, b)
		var so float64
		for _, x := range out {
			so += x
		}
		return math.Abs(so-sa*sb) < 1e-9*(1+sa*sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvolveCommutative(t *testing.T) {
	a := []float64{0.1, 0.2, 0.7}
	b := []float64{0.4, 0.6}
	ab := convolve(a, b)
	ba := convolve(b, a)
	for i := range ab {
		if math.Abs(ab[i]-ba[i]) > 1e-15 {
			t.Errorf("convolution not commutative at %d: %v vs %v", i, ab[i], ba[i])
		}
	}
}
