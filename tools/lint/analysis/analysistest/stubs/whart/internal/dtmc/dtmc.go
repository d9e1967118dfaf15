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

// TransientBatch mirrors the observed batched transient solve.
func (k *Kernel) TransientBatch(kernels []*Kernel, p0 [][]float64, steps int,
	observe func(int) error) ([][]float64, error) {
	_, _, _, _ = kernels, p0, steps, observe
	return nil, nil
}
