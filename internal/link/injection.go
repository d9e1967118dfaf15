package link

import "fmt"

// PermanentDown returns an availability that is always zero: a permanently
// failed link (obstruction, hardware fault). The network layer is expected
// to reroute around it.
func PermanentDown() Availability {
	return func(int) float64 { return 0 }
}

// Blocked forces base to zero inside the half-open slot window [from, to)
// and leaves it untouched elsewhere (no relaxation). This is the
// paper-compatible Table III semantics where the affected paths simply
// lose the blocked cycles and resume at steady state.
func Blocked(base Availability, from, to int) (Availability, error) {
	if base == nil {
		return nil, fmt.Errorf("link: Blocked requires a base availability")
	}
	if from < 0 || to < from {
		return nil, fmt.Errorf("link: invalid blocked window [%d,%d)", from, to)
	}
	return func(slot int) float64 {
		if slot >= from && slot < to {
			return 0
		}
		return base(slot)
	}, nil
}

// DownDuring returns an availability that behaves like base outside the
// half-open slot window [from, to), is forced DOWN inside the window, and
// relaxes back from the DOWN state afterwards using the model's transient
// curve. This models the paper's random-duration failure: e.g. link e3
// down for one cycle (40 slots at Fup=Fdown=20 -> 20 uplink slots).
func (m Model) DownDuring(from, to int, base Availability) (Availability, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("link: invalid failure window [%d,%d)", from, to)
	}
	if base == nil {
		base = m.Steady()
	}
	return func(slot int) float64 {
		switch {
		case slot < from:
			return base(slot)
		case slot < to:
			return 0
		default:
			// Relaxation: the link was DOWN at slot to-1 (the last
			// forced slot), so by slot `to` it has had one recovery
			// opportunity: elapsed = slot - to + 1.
			return m.TransientUp(0, slot-to+1)
		}
	}, nil
}
