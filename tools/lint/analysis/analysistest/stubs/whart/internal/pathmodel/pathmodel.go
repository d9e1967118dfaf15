// Stub of the real internal/pathmodel surface the analyzers watch.
package pathmodel

// Model is the bound path model stub.
type Model struct{}

// Structure is the cached Algorithm 1 skeleton stub.
type Structure struct{}

// Bind mirrors the real availability rebind.
func (s *Structure) Bind(avails []func(int) float64) (*Model, error) {
	_ = avails
	return &Model{}, nil
}

// Result is the solved-path stub.
type Result struct{}

// BindBatch mirrors the K-scenario bind.
func (s *Structure) BindBatch(scenarios [][]func(int) float64) ([]*Model, error) {
	_ = scenarios
	return nil, nil
}

// SolveBatch mirrors the lock-step batch solve.
func SolveBatch(models []*Model) ([]*Result, error) {
	_ = models
	return nil, nil
}
