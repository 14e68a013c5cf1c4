package linalg

// Clone-based conveniences over the in-place kernels. Production
// code factors and solves in caller-owned storage (package dd); the
// tests build their inputs and oracles with these.

import (
	"errors"
	"fmt"
)

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFromRows builds a matrix from row slices, which must all
// have equal length.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d times %dx%d", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k, mik := range mi {
			bk := b.Row(k)
			for j := range oi {
				oi[j] += mik * bk[j]
			}
		}
	}
	return out, nil
}

// MulVec returns m·x as a new slice.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d times vector of length %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Factor computes the LU decomposition of the square matrix a.
// The input is not modified: Factor is FactorInPlace on a clone.
func Factor(a *Matrix) (*LU, error) {
	f := new(LU)
	err := f.FactorInPlace(a.Clone())
	if err != nil && !errors.Is(err, ErrSingular) {
		return nil, err
	}
	return f, err
}

// Solve solves A·x = b for one right-hand side: SolveInto a fresh
// slice.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// Solve factors a and solves a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Rank is RankInPlace on a clone: the input is not modified.
func Rank(a *Matrix, tol float64) int { return RankInPlace(a.Clone(), tol) }
