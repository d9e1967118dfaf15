package linalg

import (
	"errors"
	"fmt"
)

// CSR is a sparse matrix in compressed-sparse-row format: row i's nonzeros
// occupy positions RowPtr[i]..RowPtr[i+1] of the column-index and value
// arrays. The DTMC kernel compiles transition structures into this layout
// once and then multiplies against it every slot.
type CSR struct {
	rows, cols int
	rowPtr     []int
	col        []int
	val        []float64
}

// NewCSR validates and wraps a compressed-sparse-row layout. The slices
// are retained, not copied: rowPtr must have rows+1 monotone entries
// starting at 0 and ending at len(col) == len(val), and every column index
// must lie in [0, cols).
func NewCSR(rows, cols int, rowPtr, col []int, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: negative CSR dimensions %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("%w: CSR row pointer length %d, want %d", ErrDimension, len(rowPtr), rows+1)
	}
	if len(col) != len(val) {
		return nil, fmt.Errorf("%w: CSR %d column indices vs %d values", ErrDimension, len(col), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(col) {
		return nil, fmt.Errorf("linalg: CSR row pointers span [%d,%d], want [0,%d]", rowPtr[0], rowPtr[rows], len(col))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("linalg: CSR row pointer decreases at row %d", i)
		}
	}
	for k, j := range col {
		if j < 0 || j >= cols {
			return nil, fmt.Errorf("linalg: CSR column index %d at position %d out of [0,%d)", j, k, cols)
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, col: col, val: val}, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// Row returns views (not copies) of row i's column indices and values.
// Mutating the returned value slice updates the matrix in place; the
// column slice must be treated as read-only.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.col[lo:hi], m.val[lo:hi]
}

// Values returns the backing value array (a view).
func (m *CSR) Values() []float64 { return m.val }

// sameBacking reports whether two slices share a backing array start — the
// aliasing a multiply-into must reject because it zeroes dst before reading
// x. (Partial overlaps at different offsets of one array are not
// detectable without unsafe; in this codebase vectors are always whole
// allocations, so identical starts are the only aliasing that can occur.)
func sameBacking(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// MulVecInto computes dst = x*M for a row vector x, overwriting dst. This
// is the sparse form of the transient step p(t+1) = p(t) P: mass in
// state i scatters along row i's edges. dst and x must not alias; aliased
// arguments are rejected rather than silently corrupting the product.
func (m *CSR) MulVecInto(dst, x Vector) error {
	if len(x) != m.rows {
		return fmt.Errorf("%w: CSR mulVec %d vs %d rows", ErrDimension, len(x), m.rows)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("%w: CSR mulVec dst %d vs %d cols", ErrDimension, len(dst), m.cols)
	}
	if sameBacking(dst, x) {
		return errors.New("linalg: CSR mulVec dst aliases x")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			dst[m.col[k]] += xi * m.val[k]
		}
	}
	return nil
}
