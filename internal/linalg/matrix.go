// Package linalg implements the small dense linear algebra kernel the
// geometry layers need: in-place LU decomposition with partial
// pivoting, linear-system solving and numerical rank. Matrices here
// are tiny (d×d with d ≤ ~10 for dual-vertex computation), so the
// implementation favours clarity and numerical robustness over
// blocking or vectorization; the kernels work in caller-owned storage
// so the dual hull's insertions do not allocate.
package linalg

import "errors"

// ErrSingular is returned when a matrix is singular to working
// precision.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrShape is returned for dimension mismatches.
var ErrShape = errors.New("linalg: shape mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }
