// Package mat is the flat-memory numeric substrate of the evaluation
// hot paths: row-major point matrices, column-major (transposed)
// vertex matrices, and the blocked dot/argmax kernels every scan in
// internal/core and internal/dd runs on.
//
// Why it exists: the geometric evaluators spend their time computing
// w·p over thousands of points and v·q over dozens of dual vertices,
// and before this package each point was its own heap-allocated
// geom.Vector dotted one scalar at a time through a pointer chase.
// PointMatrix backs n×d points with ONE contiguous []float64, so a
// row range handed to a kernel streams through the cache line by
// line; Transposed stores an m-column vertex matrix column-major so a
// support evaluation sums four columns' dot products at a time in
// registers, four independent addition chains (instruction-level
// parallelism the serial dot cannot have, since Go does not
// auto-vectorize), with no accumulator slice to allocate or clear.
//
// Bit-exactness contract: every kernel reproduces geom.Vector.Dot to
// the last bit.
//
//   - DotRow/MaxDotRows unroll the accumulation 4-way but keep ONE
//     accumulator updated in ascending index order — the identical
//     sequence of fused-nothing float64 operations as Vector.Dot's
//     `s += x * w[i]` loop, so the result is the same bits.
//   - MaxDotCols sums s += q[j]·col[c] from +0 with j ascending, in
//     one register per column of a four-column block; per column that
//     is the same addition order as Vector.Dot, and float64
//     multiplication commutes exactly (rounding is applied to the same
//     real product), so each column's support matches v.Dot(q) bit
//     for bit.
//   - Both argmax kernels reduce with strict `>` in ascending index
//     order: ties break to the lowest index and NaN never wins a
//     comparison — the same semantics as the sequential scans they
//     replace (dd.Polytope.MaxDot, core's regretOf), preserving the
//     determinism contract of DESIGN.md §11.
//
// The cross-validation tests and the FuzzKernels target assert this
// bit-identity on the dimensions the solvers actually use and on
// adversarial inputs (negatives, zeros, infinities, NaN).
//
// Aliasing discipline: Row returns a view into the backing array.
// Views must be consumed immediately (as a kernel or Dot argument) —
// never written through, returned, or stored past the expression that
// produced them. The slicealias analyzer enforces this discipline
// statically (see internal/analysis, fixture testdata/src/matrow).
package mat

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// PointMatrix is an n×d row-major matrix of points: row i occupies
// data[i*d : (i+1)*d]. Built once per dataset (or per solver run) and
// immutable afterwards; the zero value is an empty 0×0 matrix.
type PointMatrix struct {
	data []float64
	n, d int
}

// FromVectors copies pts into a fresh row-major matrix. All vectors
// must share one dimension (callers validate points before building);
// a mismatch panics like geom.Vector.Dot does.
func FromVectors(pts []geom.Vector) *PointMatrix { return FromRows(geom.Flatten(pts)) }

// FromRows wraps the rows r as a matrix that shares their array, so an
// evaluator over a dataset epoch reads the epoch's rows in place
// instead of a private copy.
func FromRows(r geom.Rows) *PointMatrix {
	return &PointMatrix{data: r.Data(), n: r.Len(), d: r.Dim()}
}

// Rows returns the number of points.
func (m *PointMatrix) Rows() int { return m.n }

// Dim returns the point dimension.
func (m *PointMatrix) Dim() int { return m.d }

// Row returns row i as a capacity-trimmed view into the backing
// array. The view is read-only by contract: consume it immediately
// (pass it to a kernel or Dot), never write through it, return it, or
// retain it — a later matrix rebuild would silently invalidate it.
// The slicealias analyzer flags violations.
func (m *PointMatrix) Row(i int) []float64 {
	return m.data[i*m.d : (i+1)*m.d : (i+1)*m.d]
}

// DotRow returns w·row(i), bit-identical to geom.Vector.Dot(w, row):
// one accumulator, ascending index order, unrolled 4-way.
func (m *PointMatrix) DotRow(w []float64, i int) float64 {
	if len(w) != m.d {
		panic(fmt.Sprintf("mat: DotRow dimension mismatch %d vs %d", len(w), m.d))
	}
	return dot(w, m.data[i*m.d:(i+1)*m.d])
}

// dot is the shared kernel: Σ a[i]·b[i] with a single accumulator in
// ascending order — the exact operation sequence of geom.Vector.Dot,
// so the result is the same bits. The 4-way unroll only removes loop
// overhead; it does not reassociate the sum.
func dot(a, b []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// MaxDotRows returns the argmax and maximum of w·row over rows
// [start, end): strict `>` in ascending row order, so ties break to
// the lowest row and NaN products never win (matching the sequential
// scans in core and dd). Returns (-1, -Inf) on an empty range or when
// every dot is NaN.
func (m *PointMatrix) MaxDotRows(w []float64, start, end int) (int, float64) {
	if len(w) != m.d {
		panic(fmt.Sprintf("mat: MaxDotRows dimension mismatch %d vs %d", len(w), m.d))
	}
	best, arg := math.Inf(-1), -1
	d := m.d
	for i := start; i < end; i++ {
		if u := dot(w, m.data[i*d:(i+1)*d]); u > best {
			best, arg = u, i
		}
	}
	return arg, best
}

// Gather copies the given rows (in order) into a compact new matrix —
// how the pruned extreme-set submatrix is built, so the skyline scan
// is contiguous regardless of how sparse the skyline indices are.
// Rows out of range return an error rather than panicking: indices
// may come from a persisted snapshot.
func (m *PointMatrix) Gather(rows []int) (*PointMatrix, error) {
	out := &PointMatrix{data: make([]float64, len(rows)*m.d), n: len(rows), d: m.d}
	for k, r := range rows {
		if r < 0 || r >= m.n {
			return nil, fmt.Errorf("mat: Gather row %d out of range (n=%d)", r, m.n)
		}
		copy(out.data[k*m.d:(k+1)*m.d], m.data[r*m.d:(r+1)*m.d])
	}
	return out, nil
}

// Transposed is a d×m column-major matrix: column c is a d-vector
// and coordinate j of every column is contiguous in
// data[j*m : (j+1)*m]. It stores the dual-hull vertex set so a
// support evaluation max_c col(c)·q reads four adjacent columns per
// coordinate into four independent register sums.
type Transposed struct {
	data []float64
	d, m int
}

// SetCols refills t in place from the m column vectors, reusing the
// backing array when it has the capacity — the dual hull rebuilds its
// vertex matrix after every insertion, and incremental callers rebuild
// a cap matrix per greedy iteration, so the refill is on the per-query
// allocation path.
func (t *Transposed) SetCols(d int, cols []geom.Vector) {
	n := d * len(cols)
	if cap(t.data) < n {
		// Grow geometrically: a hull's vertex count creeps up a few
		// vertices per insertion, and an exact-size refill would
		// reallocate on nearly every one.
		t.data = make([]float64, n, max(n, 2*cap(t.data)))
	}
	t.data = t.data[:n]
	t.d, t.m = d, len(cols)
	for c, v := range cols {
		if len(v) != d {
			panic(fmt.Sprintf("mat: SetCols column %d has dimension %d, want %d", c, len(v), d))
		}
		for j, x := range v {
			t.data[j*t.m+c] = x
		}
	}
}

// Cols returns the number of columns (vertices).
func (t *Transposed) Cols() int { return t.m }

// MaxDotCols returns the argmax and maximum of col(c)·q over all
// columns. It is register-blocked: each block of four columns sums
// its four dots in locals, from +0 in ascending coordinate order with
// commuted multiplications, which is bit-identical to
// geom.Vector.Dot(col, q), and folds them before the next block, so
// it needs no scratch. The reduction is strict `>` in ascending column
// order (lowest-index ties, NaN never wins). Returns (-1, -Inf) when
// there are no columns or every dot is NaN.
func (t *Transposed) MaxDotCols(q []float64) (int, float64) {
	if len(q) != t.d {
		panic(fmt.Sprintf("mat: MaxDotCols dimension mismatch %d vs %d", len(q), t.d))
	}
	m, data := t.m, t.data
	best, arg := math.Inf(-1), -1
	c := 0
	for ; c+4 <= m; c += 4 {
		var s0, s1, s2, s3 float64
		for j, qj := range q {
			col := data[j*m+c : j*m+c+4]
			s0 += qj * col[0]
			s1 += qj * col[1]
			s2 += qj * col[2]
			s3 += qj * col[3]
		}
		if s0 > best {
			best, arg = s0, c
		}
		if s1 > best {
			best, arg = s1, c+1
		}
		if s2 > best {
			best, arg = s2, c+2
		}
		if s3 > best {
			best, arg = s3, c+3
		}
	}
	for ; c < m; c++ {
		var s float64
		for j, qj := range q {
			s += qj * data[j*m+c]
		}
		if s > best {
			best, arg = s, c
		}
	}
	return arg, best
}
