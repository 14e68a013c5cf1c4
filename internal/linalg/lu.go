package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU decomposition with partial pivoting: P·A = L·U,
// stored compactly (L's unit diagonal implicit).
type LU struct {
	lu    *Matrix
	pivot []int
	sign  int // +1 or −1 from row swaps; 0 if singular
	n     int
}

// singularTol is the pivot magnitude below which the factorization
// declares the matrix singular. Inputs in this library are O(1)
// (coordinates in (0,1]), so an absolute threshold works.
const singularTol = 1e-12

// FactorInPlace computes the LU decomposition of the square matrix a
// into f, overwriting a with the compact factors, which f keeps. The
// pivot storage of a previous factorization is reused, so a caller
// that owns one LU and one scratch matrix factors without allocating.
// On ErrSingular f is left unusable for SolveInto.
func (f *LU) FactorInPlace(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: LU of %dx%d matrix", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	if cap(f.pivot) < n {
		f.pivot = make([]int, n)
	}
	lu, pivot := a, f.pivot[:n]
	*f = LU{lu: lu, pivot: pivot, n: n}
	sign := 1
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: largest magnitude in the column.
		p, best := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best < singularTol {
			return ErrSingular
		}
		if p != col {
			swapRows(lu, p, col)
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			l := lu.At(r, col) * inv
			lu.Set(r, col, l)
			for c := col + 1; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-l*lu.At(col, c))
			}
		}
	}
	f.sign = sign
	return nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// SolveInto solves A·x = b for one right-hand side into x, which must
// have the system's length and must not overlap b.
func (f *LU) SolveInto(x, b []float64) error {
	if f.sign == 0 {
		return ErrSingular
	}
	if len(b) != f.n {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("%w: solution length %d, want %d", ErrShape, len(x), f.n)
	}
	// Apply permutation.
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < f.n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return nil
}

// RankInPlace estimates the numerical rank of the (possibly
// rectangular) matrix m by Gaussian elimination with full row pivoting
// and the given tolerance. The elimination overwrites m.
func RankInPlace(m *Matrix, tol float64) int {
	rank := 0
	rows, cols := m.Rows, m.Cols
	for col := 0; col < cols && rank < rows; col++ {
		// Find pivot row at or below rank.
		p, best := -1, tol
		for r := rank; r < rows; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if p < 0 {
			continue
		}
		if p != rank {
			swapRows(m, p, rank)
		}
		inv := 1 / m.At(rank, col)
		for r := 0; r < rows; r++ {
			if r == rank {
				continue
			}
			f := m.At(r, col) * inv
			for c := col; c < cols; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(rank, c))
			}
		}
		rank++
	}
	return rank
}
