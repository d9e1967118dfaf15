package p

import (
	"wirelesshart/internal/link"
	"wirelesshart/internal/stats"
)

func equality(a, b float64, xs []float64) int {
	if a == b { // want `floating-point == comparison`
		return 1
	}
	if a != b { // want `floating-point != comparison`
		return 2
	}
	if a == 0 { // exact sparsity test: allowed
		return 3
	}
	if 0 != b { // allowed in either operand order
		return 4
	}
	if xs[0] == 0.0 { // a float literal zero is still exactly zero
		return 5
	}
	if a == 0.5 { // want `floating-point == comparison`
		return 6
	}
	const half, quarter = 0.5, 0.25
	if half == quarter { // both constant: folded at compile time
		return 7
	}
	//whartlint:ignore probfloat demonstration of the suppression protocol
	if a == b {
		return 8
	}
	if len(xs) == 0 { // integer comparison: not probfloat's business
		return 9
	}
	return 0
}

func ranges() {
	_, _ = link.New(1.5, 0.9)  // want `probability argument 1.5 to New is outside \[0,1\]`
	_, _ = link.New(0.3, -0.2) // want `probability argument .* to New is outside \[0,1\]`
	_, _ = link.New(0, 1)      // boundary values are fine

	_, _ = link.New(0.1, 2)   // want `probability argument 2 to New is outside \[0,1\]`
	_, _ = link.New(0.1, 0.7) // in range

	var m link.Model
	_, _ = link.FromAvailability(0.8, 1.25) // want `probability argument 1.25 to FromAvailability is outside \[0,1\]`
	_ = m.TransientUp(-0.5, 3)              // want `probability argument .* to TransientUp is outside \[0,1\]`

	p := 1.5 // non-constant arguments are runtime validation's job
	_, _ = link.New(p, 0.9)

	_, _ = stats.Percentile(nil, 1.1) // want `probability argument 1.1 to Percentile is outside \[0,1\]`
	_, _ = stats.Percentile(nil, 0.9) // in range

	_, _ = link.NewUniformMixing(1.5, nil)  // want `probability argument 1.5 to NewUniformMixing is outside \[0,1\]`
	_, _ = link.NewUniformMixing(0.9, nil)  // in range
	_, _ = link.FromAvailability(-0.1, 0.9) // want `probability argument .* to FromAvailability is outside \[0,1\]`
	_, _ = link.FromAvailability(0.8, 0.9)  // in range
}
