package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// buildCSR assembles a CSR from dense rows, keeping explicit zeros out.
func buildCSR(t *testing.T, rows [][]float64) *CSR {
	t.Helper()
	nr := len(rows)
	nc := 0
	if nr > 0 {
		nc = len(rows[0])
	}
	rowPtr := make([]int, nr+1)
	var col []int
	var val []float64
	for i, r := range rows {
		for j, v := range r {
			if v != 0 {
				col = append(col, j)
				val = append(val, v)
			}
		}
		rowPtr[i+1] = len(col)
	}
	m, err := NewCSR(nr, nc, rowPtr, col, val)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCSRValidation(t *testing.T) {
	tests := []struct {
		name   string
		rows   int
		cols   int
		rowPtr []int
		col    []int
		val    []float64
	}{
		{name: "negative dims", rows: -1, cols: 2, rowPtr: []int{0}, col: nil, val: nil},
		{name: "short rowPtr", rows: 2, cols: 2, rowPtr: []int{0, 1}, col: []int{0}, val: []float64{1}},
		{name: "col/val mismatch", rows: 1, cols: 2, rowPtr: []int{0, 1}, col: []int{0}, val: []float64{1, 2}},
		{name: "rowPtr not starting at zero", rows: 1, cols: 2, rowPtr: []int{1, 1}, col: []int{0}, val: []float64{1}},
		{name: "rowPtr not ending at nnz", rows: 1, cols: 2, rowPtr: []int{0, 2}, col: []int{0}, val: []float64{1}},
		{name: "decreasing rowPtr", rows: 2, cols: 2, rowPtr: []int{0, 2, 1}, col: []int{0, 1}, val: []float64{1, 2}},
		{name: "column out of range", rows: 1, cols: 2, rowPtr: []int{0, 1}, col: []int{2}, val: []float64{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCSR(tt.rows, tt.cols, tt.rowPtr, tt.col, tt.val); err == nil {
				t.Error("NewCSR should reject invalid layout")
			}
		})
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				if rng.Float64() < 0.3 {
					rows[i][j] = rng.Float64()
				}
			}
		}
		sparse := buildCSR(t, rows)
		x := NewVector(n)
		for i := range x {
			x[i] = rng.Float64()
		}
		// Dense reference: want[j] = sum_i x[i] * rows[i][j].
		want := NewVector(n)
		for i, r := range rows {
			for j, v := range r {
				want[j] += x[i] * v
			}
		}
		got := NewVector(n)
		if err := sparse.MulVecInto(got, x); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-14 {
				t.Fatalf("trial %d: entry %d = %v, dense %v", trial, j, got[j], want[j])
			}
		}
	}
}

func TestCSRMulVecOverwritesDst(t *testing.T) {
	m := buildCSR(t, [][]float64{{0.5, 0.5}, {0, 1}})
	dst := Vector{7, 7}
	if err := m.MulVecInto(dst, Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0.5 || dst[1] != 0.5 {
		t.Errorf("dst = %v, want [0.5 0.5]", dst)
	}
}

func TestCSRMulVecDimensionErrors(t *testing.T) {
	m := buildCSR(t, [][]float64{{1, 0}, {0, 1}})
	if err := m.MulVecInto(NewVector(2), NewVector(3)); err == nil {
		t.Error("wrong x length should error")
	}
	if err := m.MulVecInto(NewVector(3), NewVector(2)); err == nil {
		t.Error("wrong dst length should error")
	}
}

func TestCSRRowAndValuesAreViews(t *testing.T) {
	m := buildCSR(t, [][]float64{{0, 0.25, 0.75}, {1, 0, 0}})
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Fatalf("row 0 cols = %v, want [1 2]", cols)
	}
	vals[0] = 0.1 // in-place update through the view
	if m.Values()[0] != 0.1 {
		t.Error("Row values should alias the backing array")
	}
	out := NewVector(3)
	if err := m.MulVecInto(out, Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if out[1] != 0.1 {
		t.Errorf("updated entry not used: out = %v", out)
	}
}

// TestCSRDense pins the layout against its dense source: every row's
// entries are that row's nonzeros in column order, stored consecutively
// in the value array, and the rows tile [0, NNZ).
func TestCSRDense(t *testing.T) {
	rows := [][]float64{{0, 0.5, 0.5}, {0, 0, 0}, {1, 0, 0}, {0.25, 0.25, 0.5}}
	m := buildCSR(t, rows)
	next := 0
	for i, r := range rows {
		lo := next
		cols, vals := m.Row(i)
		next += len(cols)
		got := make([]float64, len(r))
		for e, j := range cols {
			if vals[e] != m.Values()[lo+e] {
				t.Errorf("row %d entry %d: Row value %v, Values()[%d] = %v", i, e, vals[e], lo+e, m.Values()[lo+e])
			}
			got[j] = vals[e]
		}
		for j := range r {
			if got[j] != r[j] {
				t.Errorf("dense[%d][%d] = %v, want %v", i, j, got[j], r[j])
			}
		}
	}
	if next != m.NNZ() {
		t.Errorf("row spans end at %d, want NNZ %d", next, m.NNZ())
	}
}

func TestCSREmpty(t *testing.T) {
	m, err := NewCSR(0, 0, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Error("empty CSR should have no entries")
	}
	if err := m.MulVecInto(Vector{}, Vector{}); err != nil {
		t.Error("empty multiply should succeed")
	}
}

func TestCSRMulVecRejectsAliasing(t *testing.T) {
	m := buildCSR(t, [][]float64{{0.5, 0.5}, {1, 0}})
	v := NewVector(2)
	v[0] = 1
	if err := m.MulVecInto(v, v); err == nil {
		t.Fatal("aliased dst/x accepted; the product would be corrupted")
	}
	// A same-length distinct vector must still work.
	dst := NewVector(2)
	if err := m.MulVecInto(dst, v); err != nil {
		t.Fatal(err)
	}
}
