package geom

import "fmt"

// Rows is a point set stored row-major in one pointer-free array:
// point i is the d coordinates data[i*d : (i+1)*d]. It is how every
// dataset epoch holds its points (DESIGN.md §12): n·d float64s and the
// dimension, with no per-point slice header for ingestion to write or
// the garbage collector to scan. A Rows value is a view; copying it
// shares the array, and the epochs that publish one never write the
// rows it covers again.
type Rows struct {
	data []float64
	d    int
}

// NewRows returns the rows of data, an n×d row-major array with
// len(data) a multiple of d ≥ 1. The rows share data, capped at its
// length, so nothing appends through them into spare capacity.
func NewRows(data []float64, d int) Rows {
	if d < 1 || len(data)%d != 0 {
		panic(fmt.Sprintf("geom: %d values are not rows of dimension %d", len(data), d))
	}
	return Rows{data: data[:len(data):len(data)], d: d}
}

// Flatten copies pts, which must share one dimension d ≥ 1, into fresh
// rows: the adapter by which a []Vector reaches a kernel that reads
// rows. Other input panics like Vector.Dot does on a dimension
// mismatch; callers validate first. Empty input gives empty rows.
func Flatten(pts []Vector) Rows {
	if len(pts) == 0 {
		return Rows{}
	}
	d := len(pts[0])
	data := make([]float64, 0, len(pts)*d)
	for i, p := range pts {
		if len(p) != d {
			panic(fmt.Sprintf("geom: Flatten point %d has dimension %d, want %d", i, len(p), d))
		}
		data = append(data, p...)
	}
	return NewRows(data, d)
}

// Len returns the number of points.
func (r Rows) Len() int {
	if r.d == 0 {
		return 0
	}
	return len(r.data) / r.d
}

// Dim returns the point dimension (0 for empty rows from Flatten).
func (r Rows) Dim() int { return r.d }

// Data returns the row-major coordinates, shared, not copied. Callers
// must not write them.
func (r Rows) Data() []float64 { return r.data }

// Row returns point i as a capacity-capped view of the rows, so an
// append to it reallocates instead of writing into point i+1. The view
// is read-only by the same contract as the rows.
func (r Rows) Row(i int) Vector {
	return r.data[i*r.d : (i+1)*r.d : (i+1)*r.d]
}

// Slice returns points [lo, hi) as rows sharing the array.
func (r Rows) Slice(lo, hi int) Rows {
	return Rows{data: r.data[lo*r.d : hi*r.d : hi*r.d], d: r.d}
}

// Views returns a view of every point, in order: one slice header per
// point, for the paths that take a whole []Vector (the 2-d exact
// solver, AverageGreedy, the interactive session). Each call builds a
// fresh header array; candidate-sized subsets take the views of their
// own indices instead.
func (r Rows) Views() []Vector {
	out := make([]Vector, r.Len())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}
