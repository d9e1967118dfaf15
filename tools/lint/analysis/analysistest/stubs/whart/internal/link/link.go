// Stub of the real internal/link surface the analyzers watch; the
// analyzers match by types.Func.FullName, so the module path and
// signatures must mirror the real package.
package link

// Availability mirrors the real package's per-slot up-probability.
type Availability func(int) float64

// Model is the two-state link model stub.
type Model struct{}

// New mirrors link.New(pfl, prc).
func New(pfl, prc float64) (Model, error) {
	_, _ = pfl, prc
	return Model{}, nil
}

// FromAvailability mirrors the real availability/recovery parameters.
func FromAvailability(availability, prc float64) (Model, error) {
	_, _ = availability, prc
	return Model{}, nil
}

// TransientUp mirrors the real u0 parameter.
func (m Model) TransientUp(u0 float64, t int) float64 {
	_ = t
	return u0
}

// Steady mirrors the steady-state availability accessor.
func (m Model) Steady() Availability { return nil }

// KState is the k-state fading model stub.
type KState struct{}

// NewKState mirrors the explicit-matrix constructor.
func NewKState(trans [][]float64, succ []float64) (*KState, error) {
	_, _ = trans, succ
	return &KState{}, nil
}

// FromModel mirrors the exact k=2 embedding.
func FromModel(m Model) (*KState, error) {
	_ = m
	return &KState{}, nil
}

// NewUniformMixing mirrors the uniform-mixing constructor.
func NewUniformMixing(stay float64, succ []float64) (*KState, error) {
	_, _ = stay, succ
	return &KState{}, nil
}

// Process mirrors the pluggable link-process interface.
type Process interface {
	States() int
}
