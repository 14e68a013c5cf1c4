// Package geom provides the d-dimensional vector and tolerance
// primitives shared by every geometric component of the repository:
// the skyline and happy-point filters, the double-description dual
// hull, the LP solver and the k-regret algorithms themselves.
//
// All coordinates are float64. Comparisons between derived quantities
// (dot products, norms, ratios) go through the tolerance helpers in
// eps.go so that every package agrees on what "equal" means.
package geom

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a point or direction in R^d. The zero-length vector is
// valid and represents a 0-dimensional point.
type Vector []float64

// ErrDimensionMismatch is returned when two vectors of different
// lengths are combined.
var ErrDimensionMismatch = errors.New("geom: dimension mismatch")

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the dot product v·w. It panics if the dimensions
// differ; use CheckSameDim first when the inputs are untrusted.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("geom: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	//kregret:allow naninf: s is a sum of squares, never negative
	return math.Sqrt(s)
}

// Sum returns Σ v_i (no absolute values).
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c·v as a new vector.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Normalize returns v/‖v‖. Returns an error if ‖v‖ is zero (within
// tolerance) or not finite.
func (v Vector) Normalize() (Vector, error) {
	n := v.Norm()
	if !math.IsInf(n, 0) && n > Eps {
		return v.Scale(1 / n), nil
	}
	return nil, fmt.Errorf("geom: cannot normalize vector with norm %g", n)
}

// Equal reports whether v and w agree component-wise within
// tolerance eps.
func (v Vector) Equal(w Vector, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component is a finite number.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// AllPositive reports whether every component is strictly positive.
func (v Vector) AllPositive() bool {
	for _, x := range v {
		if x <= 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component is ≥ −eps.
func (v Vector) NonNegative(eps float64) bool {
	for _, x := range v {
		if x < -eps {
			return false
		}
	}
	return true
}

// String renders v as "(x1, x2, …)" with compact formatting.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// CheckSameDim returns ErrDimensionMismatch when the vectors have
// different lengths.
func CheckSameDim(v, w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	return nil
}

func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// Dominates reports whether p dominates q in the skyline sense:
// p ≥ q on every dimension and p > q on at least one, using strict
// floating-point comparison. The two vectors must have equal length.
func Dominates(p, q Vector) bool {
	mustSameDim(p, q)
	strict := false
	for i := range p {
		if p[i] < q[i] {
			return false
		}
		if p[i] > q[i] {
			strict = true
		}
	}
	return strict
}
