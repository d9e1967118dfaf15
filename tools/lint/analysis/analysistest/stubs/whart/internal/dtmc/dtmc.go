// Stub of the real internal/dtmc surface the analyzers watch.
package dtmc

// Chain is the DTMC builder stub.
type Chain struct{}

// Kernel is the compiled-chain stub.
type Kernel struct{}

// New returns an empty chain.
func New() *Chain { return &Chain{} }

// Validate mirrors the real stochasticity check.
func (c *Chain) Validate(tol float64) error {
	_ = tol
	return nil
}

// AddTransition mirrors the real edge builder.
func (c *Chain) AddTransition(from, to int, p float64) error {
	_, _, _ = from, to, p
	return nil
}

// Compile mirrors the kernel compiler (result-only API).
func (c *Chain) Compile() *Kernel { return &Kernel{} }

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
