// Stub of the real internal/dtmc surface the analyzers watch.
package dtmc

// Kernel is the compiled-chain stub.
type Kernel struct{}

// NewKernel mirrors the validating CSR constructor.
func NewKernel(rowPtr, col []int, val []float64, tol float64) (*Kernel, error) {
	_, _, _, _ = rowPtr, col, val, tol
	return &Kernel{}, nil
}

// Rebind mirrors the values-only recompile.
func (k *Kernel) Rebind(values []float64, tol float64) (*Kernel, error) {
	_, _ = values, tol
	return k, nil
}
