package link

import "strconv"

// Process is a per-slot link state process — the abstraction the rest of
// the stack consumes instead of the concrete two-state Model. A Process
// owns a finite state chain over channel states, a per-state packet
// success probability, and the derived per-slot availability functions
// that parameterize the path DTMC. The classic two-state Model (paper
// Fig. 3) is the simplest implementation; KState generalizes it to
// k-state Markov fading channels.
//
// Implementations must be immutable after construction and safe for
// concurrent use: availabilities returned by Steady are shared across the
// evaluation engine's worker pool.
type Process interface {
	// States returns the number of channel states (2 for the classic
	// UP/DOWN model).
	States() int
	// SteadyUp returns the stationary per-slot packet success
	// probability — the marginal availability after the chain has mixed.
	SteadyUp() float64
	// Steady returns the availability of a link that has reached its
	// stationary distribution before the reporting interval begins — the
	// assumption of the paper's evaluation sections.
	Steady() Availability
	// AppendKey appends the canonical parameter encoding of the process
	// to b and returns the extended slice. Encodings are
	// collision-free across implementations (each starts with a distinct
	// tag) and exact (floats in strconv 'b' format), so two processes
	// share an encoding if and only if they define the same per-slot
	// behavior parameters. The evaluation engine hashes these encodings
	// into its scenario and path cache keys.
	AppendKey(b []byte) []byte
}

// States returns 2: the classic model is the k=2 case of a fading-channel
// process.
func (m Model) States() int { return 2 }

// AppendKey appends the model's canonical "g:p_fl:p_rc" encoding ("g" for
// the Gilbert-style two-state chain).
func (m Model) AppendKey(b []byte) []byte {
	b = append(b, 'g', ':')
	b = strconv.AppendFloat(b, m.pfl, 'b', -1, 64)
	b = append(b, ':')
	b = strconv.AppendFloat(b, m.prc, 'b', -1, 64)
	return b
}

// MemorylessEquivalent reduces a process to the two-state view used where
// code needs (p_fl, p_rc) parameters: a classic model passes through
// unchanged; any other process maps to the iid chain p_fl = 1-a, p_rc = a
// for its stationary availability a. The iid chain is the unique two-state
// model that is genuinely memoryless — lambda = 1-p_fl-p_rc = 0, so its per-slot
// availability equals a from every initial state — and it exists for the
// whole range a in [0,1] that a process's SteadyUp can produce (a = 0 is
// clamped just above zero: a two-state model needs a positive recovery
// probability).
func MemorylessEquivalent(p Process) Model {
	if m, ok := p.(Model); ok {
		return m
	}
	steady := p.SteadyUp()
	const floor = 1e-15
	if steady < floor {
		steady = floor
	}
	return Model{pfl: 1 - steady, prc: steady}
}

// Compile-time conformance checks: the classic model and the k-state
// fading model are both processes.
var (
	_ Process = Model{}
	_ Process = (*KState)(nil)
)
