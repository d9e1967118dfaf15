// Package linalg provides the small numeric kernel under the DTMC engine:
// dense vectors, a compressed-sparse-row matrix with a row-vector
// product, and discrete convolution for probability mass functions. It is hand-rolled on the standard library only.
package linalg

import "errors"

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}
