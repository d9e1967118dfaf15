// Stub of the real internal/linalg surface the analyzers watch.
package linalg

// CSR is the compressed-sparse-row matrix stub.
type CSR struct{}

// NewCSR mirrors the validating constructor.
func NewCSR(rows, cols int, rowPtr, col []int, val []float64) (*CSR, error) {
	_, _, _, _, _ = rows, cols, rowPtr, col, val
	return &CSR{}, nil
}

// WithValues mirrors the shared-pattern rebind.
func (m *CSR) WithValues(val []float64) (*CSR, error) {
	_ = val
	return m, nil
}
