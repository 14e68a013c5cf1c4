// Package dd maintains the vertex set of a convex polytope
//
//	Q = { ω ∈ R^d : A·ω ≤ b }
//
// under incremental insertion of halfspaces, using the double
// description method (Motzkin et al.) with an exact, degeneracy-robust
// adjacency test.
//
// Why this is the heart of the reproduction: the paper's GeoGreedy
// algorithm maintains the convex hull Conv(S) of the orthotope closure
// of the selection set S and answers ray-shooting queries against its
// faces. Because Conv(S) is downward closed inside the positive
// orthant, its polar dual restricted to ω ≥ 0 is exactly
//
//	Q(S) = { ω ≥ 0 : ω·p ≤ 1  for every p ∈ S },
//
// and the faces of Conv(S) not passing through the origin correspond
// one-to-one with the vertices of Q(S). The paper's critical ratio
// (Definition 3) becomes
//
//	cr(q, S) = 1 / max_{v ∈ vertices(Q(S))} v·q ,
//
// and inserting a point p into S is inserting the halfspace ω·p ≤ 1
// here: the vertices this deletes are the primal faces the paper
// removes, and the vertices this creates are the primal's "new faces
// containing p_o" (Section IV-A). Package core builds GeoGreedy's
// incremental index directly on the Added/Removed sets reported by
// AddHalfspace.
package dd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/mat"
)

// Errors reported by the polytope constructors and AddHalfspace.
var (
	ErrBadDimension = errors.New("dd: dimension must be between 1 and 16")
	ErrEmpty        = errors.New("dd: polytope became empty")
	ErrBadHalfspace = errors.New("dd: malformed halfspace")
)

// Vertex is a vertex of the polytope. Tight lists the indices of the
// constraints satisfied with equality at the vertex, sorted
// ascending; it always contains at least dim entries whose normals
// span R^dim.
type Vertex struct {
	// ID is unique within the polytope and never reused, so callers
	// can cache references across insertions.
	ID int
	// Point is the vertex location.
	Point geom.Vector
	// Tight holds sorted indices into Polytope constraints.
	Tight []int32
}

// Polytope is a bounded polyhedron maintained as both a constraint
// list (the H-representation) and a vertex list (the
// V-representation), kept consistent by AddHalfspace.
type Polytope struct {
	dim    int
	cons   []geom.Hyperplane // a·x ≤ b
	verts  []*Vertex         // alive vertices, compacted after each insertion
	nextID int
	// tv mirrors verts as a column-major matrix (column c = verts[c]),
	// rebuilt whenever the vertex set changes, so MaxDot and
	// SupportsInto run as contiguous kernels instead of pointer-chasing
	// the vertex slice. See internal/mat for the bit-exactness
	// contract.
	tv *mat.Transposed

	// Vertices, their points and tight sets, and constraint normals are
	// carved from these slabs (see carve). Memory is never handed back:
	// callers may hold a removed vertex, so a slab lives until the
	// polytope and every vertex carved from it are unreachable.
	vertSlab  []Vertex
	floatSlab []float64
	tightSlab []int32

	// Insertion scratch, reused by every AddHalfspace so that an
	// insertion allocates only its result and, now and then, a slab.
	spare      []*Vertex     // the other half of the verts double buffer
	colScratch []geom.Vector // rebuildTV's column list
	valScratch []float64     // a·v − b per vertex
	clsScratch []vclass
	removed    []int32   // indices into verts of the vertices cut off
	incidence  [][]int32 // constraint → strictly-inside vertices tight on it
	shared     []int32   // vertex → tight constraints shared with the removed vertex at hand; zero between uses
	touched    []int32   // vertices with a nonzero shared count, in first-touch order
	common     []int32   // tight set of a candidate edge, then of its crossing vertex
	basis      []int32   // refine's independent tight constraints
	rhs        []float64
	point      []float64     // crossing point
	solution   []float64     // refined crossing point
	rows       linalg.Matrix // constraint normals loaded by normals
	lu         linalg.LU
}

// minSlab is the fewest vertices a fresh slab is sized for.
const minSlab = 64

// carve returns n fresh elements of *slab as a capacity-capped view,
// so an append to it reallocates instead of writing into a neighbour.
// When the slab is short it is replaced by a new one of max(n, size)
// elements; the old one stays alive through the views it handed out.
func carve[T any](slab *[]T, n, size int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, size))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// grow returns s resized to n, reallocating with headroom when the
// capacity is short. Elements past the old length are whatever the
// buffer last held (zero after a reallocation).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 2*n)
	}
	return s[:n]
}

// slabVerts sizes a fresh slab in vertices: the live vertex count, so
// a slab lasts a few insertions and the unused tail of the last one
// stays a fraction of the polytope.
func (p *Polytope) slabVerts() int { return max(len(p.verts), minSlab) }

// newFloats returns a slab-carved copy of x.
func (p *Polytope) newFloats(x []float64) geom.Vector {
	out := carve(&p.floatSlab, len(x), p.slabVerts()*p.dim)
	copy(out, x)
	return out
}

// newTight returns a slab-carved tight set of length n.
func (p *Polytope) newTight(n int) []int32 {
	return carve(&p.tightSlab, n, p.slabVerts()*(p.dim+1))
}

// newVertex creates a vertex with the next ID from slab-carved copies
// of point and tight.
func (p *Polytope) newVertex(point []float64, tight []int32) *Vertex {
	v := &carve(&p.vertSlab, 1, p.slabVerts())[0]
	v.ID = p.nextID
	p.nextID++
	v.Point = p.newFloats(point)
	v.Tight = p.newTight(len(tight))
	copy(v.Tight, tight)
	return v
}

// tighten marks constraint c tight at v. c is the constraint being
// inserted, larger than every index already in v.Tight, so it goes
// last.
func (p *Polytope) tighten(v *Vertex, c int32) {
	t := p.newTight(len(v.Tight) + 1)
	copy(t, v.Tight)
	t[len(v.Tight)] = c
	v.Tight = t
}

// vclass classifies a vertex against an incoming halfspace.
type vclass int8

const (
	below vclass = iota // strictly inside
	on
	above // to be removed
)

// rebuildTV regenerates the transposed vertex matrix from the current
// vertex set. Called after every vertex-set change; refine has already
// snapped new vertex points by then, so the matrix captures the final
// coordinates.
func (p *Polytope) rebuildTV() {
	p.colScratch = grow(p.colScratch, len(p.verts))
	cols := p.colScratch
	for c, v := range p.verts {
		cols[c] = v.Point
	}
	if p.tv == nil {
		p.tv = &mat.Transposed{}
	}
	p.tv.SetCols(p.dim, cols)
}

// AddResult describes the effect of one halfspace insertion.
type AddResult struct {
	// Redundant is true when the halfspace removed no vertex (the
	// polytope is unchanged except for tightness bookkeeping).
	Redundant bool
	// RemovedIDs holds the IDs of vertices cut off by the halfspace.
	RemovedIDs []int
	// Added holds the vertices created on the new hyperplane, in an
	// order (and so with IDs) that repeats from run to run.
	Added []*Vertex
	// OnPlane holds pre-existing vertices that happen to lie on the
	// new hyperplane (kept, now tight on it). Together with Added
	// they are all vertices of the polytope's new face: a maximizer
	// of a linear function whose old argmax was removed lies in
	// Added ∪ OnPlane — incremental callers must rescan both.
	OnPlane []*Vertex
}

// onEps classifies a vertex as lying on a hyperplane when
// |a·v − b| ≤ onEps·(1+|b|).
const onEps = 1e-9

// NewBox returns the axis-aligned box {0 ≤ x_i ≤ upper[i]} as a
// Polytope. Constraint indices are fixed: 0..d−1 are the lower bounds
// −x_i ≤ 0 and d..2d−1 the upper bounds x_i ≤ upper[i]. The box has
// 2^d vertices, so the dimension is capped at 16.
func NewBox(upper []float64) (*Polytope, error) {
	d := len(upper)
	if d < 1 || d > 16 {
		return nil, fmt.Errorf("%w: got %d", ErrBadDimension, d)
	}
	for i, u := range upper {
		if !(u > 0) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("%w: upper bound %d is %g, need finite positive", ErrBadHalfspace, i, u)
		}
	}
	n := 1 << d
	p := &Polytope{
		dim:       d,
		verts:     make([]*Vertex, 0, n),
		vertSlab:  make([]Vertex, 0, n),
		floatSlab: make([]float64, 0, (n+2*d)*d),
		tightSlab: make([]int32, 0, n*d),
	}
	axis := make([]float64, d)
	for i := 0; i < d; i++ {
		axis[i] = -1
		p.cons = append(p.cons, geom.Hyperplane{Normal: p.newFloats(axis), Offset: 0})
		axis[i] = 0
	}
	for i := 0; i < d; i++ {
		axis[i] = 1
		p.cons = append(p.cons, geom.Hyperplane{Normal: p.newFloats(axis), Offset: upper[i]})
		axis[i] = 0
	}
	pt := make([]float64, d)
	tight := make([]int32, 0, d)
	for mask := 0; mask < n; mask++ {
		tight = tight[:0]
		for i := 0; i < d; i++ {
			pt[i] = 0
			if mask&(1<<i) != 0 {
				pt[i] = upper[i]
			}
		}
		// Tight sets must be sorted ascending: lower bounds first.
		for i := 0; i < d; i++ {
			if mask&(1<<i) == 0 {
				tight = append(tight, int32(i))
			}
		}
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				tight = append(tight, int32(d+i))
			}
		}
		p.verts = append(p.verts, p.newVertex(pt, tight))
	}
	p.rebuildTV()
	return p, nil
}

// Dim returns the ambient dimension.
func (p *Polytope) Dim() int { return p.dim }

// NumVertices returns the number of live vertices.
func (p *Polytope) NumVertices() int { return len(p.verts) }

// Vertices returns the live vertex slice. Callers must not modify it;
// the slice is invalidated by the next AddHalfspace.
func (p *Polytope) Vertices() []*Vertex { return p.verts }

// MaxDot returns the maximum of q·v over all vertices and the argmax
// vertex. For a bounded polytope this is the support function of Q in
// direction q. Returns (−Inf, nil) when the polytope has no vertices.
//
// The scan runs on the transposed vertex matrix (mat.MaxDotCols),
// which is bit-identical to the reference vertex loop (maxDotRef):
// same per-vertex dot bits, same first-max reduction in vertex order,
// same NaN-never-wins comparison semantics. A property test
// cross-validates the two on every polytope the suite builds.
func (p *Polytope) MaxDot(q geom.Vector) (float64, *Vertex) {
	if len(p.verts) == 0 {
		return math.Inf(-1), nil
	}
	if p.tv == nil || p.tv.Cols() != len(p.verts) {
		p.rebuildTV()
	}
	c, best := p.tv.MaxDotCols(q)
	if c < 0 {
		// Every dot was NaN: the reference loop would have kept its
		// initial (−Inf, nil) state.
		return math.Inf(-1), nil
	}
	return best, p.verts[c]
}

// SupportsInto evaluates the support function for rows [start, end)
// of qm in one batch: vals[i-start] receives max_v v·q_i and, when
// ids is non-nil, ids[i-start] the argmax vertex ID (−1 if every dot
// is NaN). Each entry is bit-identical to MaxDot on the same row. The
// method only reads the polytope, so concurrent calls from parallel
// scan chunks are safe as long as no insertion runs.
func (p *Polytope) SupportsInto(qm *mat.PointMatrix, start, end int, vals []float64, ids []int) {
	if p.tv == nil || p.tv.Cols() != len(p.verts) {
		p.rebuildTV()
	}
	for i := start; i < end; i++ {
		c, best := p.tv.MaxDotCols(qm.Row(i))
		vals[i-start] = best
		if ids != nil {
			if c < 0 {
				ids[i-start] = -1
			} else {
				ids[i-start] = p.verts[c].ID
			}
		}
	}
}

// AddHalfspace intersects the polytope with {x : normal·x ≤ offset}
// and reports the removed and created vertices. It returns ErrEmpty
// (leaving the polytope in an undefined state) if the intersection
// has no vertices.
func (p *Polytope) AddHalfspace(normal geom.Vector, offset float64) (AddResult, error) {
	return p.AddHalfspaceCtx(context.Background(), normal, offset)
}

// AddHalfspaceCtx is AddHalfspace with a cancellation check before
// the vertex classification pass and again before the (potentially
// quadratic) edge-generation pass, so long insertion sequences driven
// by package core stop promptly when the caller's context ends. A
// canceled insertion leaves the polytope in an undefined state, like
// ErrEmpty does.
func (p *Polytope) AddHalfspaceCtx(ctx context.Context, normal geom.Vector, offset float64) (AddResult, error) {
	if err := ctx.Err(); err != nil {
		return AddResult{}, fmt.Errorf("dd: halfspace insertion canceled: %w", err)
	}
	if len(normal) != p.dim {
		return AddResult{}, fmt.Errorf("%w: normal has dimension %d, want %d", ErrBadHalfspace, len(normal), p.dim)
	}
	if !normal.IsFinite() || math.IsNaN(offset) || math.IsInf(offset, 0) {
		return AddResult{}, fmt.Errorf("%w: non-finite coefficients", ErrBadHalfspace)
	}
	if fault.Enabled && fault.Active(fault.SiteDDAddHalfspace) {
		return AddResult{}, fmt.Errorf("%w (injected degeneracy)", ErrEmpty)
	}
	cIdx := int32(len(p.cons))
	p.cons = append(p.cons, geom.Hyperplane{Normal: p.newFloats(normal), Offset: offset})

	tol := onEps * (1 + math.Abs(offset))
	n := len(p.verts)
	p.valScratch = grow(p.valScratch, n)
	p.clsScratch = grow(p.clsScratch, n)
	p.shared = grow(p.shared, n)
	vals, classes := p.valScratch, p.clsScratch
	var nAbove int
	for i, v := range p.verts {
		val := normal.Dot(v.Point) - offset
		vals[i] = val
		switch {
		case val > tol:
			classes[i] = above
			nAbove++
		case val >= -tol:
			classes[i] = on
		default:
			classes[i] = below
		}
	}

	if nAbove == 0 {
		// Redundant halfspace: record tightness on coincident
		// vertices and keep everything.
		for i, v := range p.verts {
			if classes[i] == on {
				p.tighten(v, cIdx)
			}
		}
		return AddResult{Redundant: true}, nil
	}
	if nAbove == n {
		return AddResult{}, ErrEmpty
	}

	// Partition. The surviving vertices go to the spare half of the
	// vertex double buffer, followed below by the created ones; the
	// incidence index lists, per constraint, the strictly-inside
	// vertices tight on it.
	next := p.spare[:0]
	removed := p.removed[:0]
	removedIDs := make([]int, 0, nAbove)
	var onPlane []*Vertex
	for len(p.incidence) < len(p.cons) {
		p.incidence = append(p.incidence, nil) // keeps the other lists' buffers
	}
	for c := range p.incidence {
		p.incidence[c] = p.incidence[c][:0]
	}
	for i, v := range p.verts {
		switch classes[i] {
		case above:
			removed = append(removed, int32(i))
			removedIDs = append(removedIDs, v.ID)
		case on:
			p.tighten(v, cIdx)
			next = append(next, v)
			onPlane = append(onPlane, v)
		default:
			next = append(next, v)
			for _, c := range v.Tight {
				p.incidence[c] = append(p.incidence[c], int32(i))
			}
		}
	}
	p.removed = removed
	nKept := len(next)

	// Generate new vertices on edges between strictly-inside kept
	// vertices and removed vertices. Edges from "on" vertices do not
	// create new vertices (the crossing point is the on-vertex
	// itself), so those are not indexed.
	//
	// Candidate pruning: an edge's endpoints share at least dim−1
	// tight constraints, so for each removed vertex we only test the
	// inside vertices reachable through the incidence index, counting
	// shared constraints in a dense per-vertex table. Candidates are
	// visited in first-touch order, which is deterministic because
	// tight sets and incidence lists are ascending, so the created
	// vertices, their order and their IDs repeat from run to run.
	if err := ctx.Err(); err != nil {
		return AddResult{}, fmt.Errorf("dd: halfspace insertion canceled: %w", err)
	}
	shared := p.shared
	for _, ri := range removed {
		w := p.verts[ri]
		wVal := vals[ri]
		touched := p.touched[:0]
		for _, c := range w.Tight {
			for _, ui := range p.incidence[c] {
				if shared[ui] == 0 {
					touched = append(touched, ui)
				}
				shared[ui]++
			}
		}
		p.touched = touched
		for _, ui := range touched {
			cnt := shared[ui]
			shared[ui] = 0
			if int(cnt) < p.dim-1 {
				continue
			}
			u := p.verts[ui]
			p.common = intersectSorted(p.common[:0], u.Tight, w.Tight)
			if !p.isEdge(p.common) {
				continue
			}
			uVal := vals[ui]
			// Crossing point: x = u + t(w−u), t = −uVal/(wVal−uVal).
			den := wVal - uVal
			if den <= 0 {
				continue // numerically impossible: wVal > 0 > uVal
			}
			t := -uVal / den
			p.point = grow(p.point, p.dim)
			pt := p.point
			for j := range pt {
				pt[j] = u.Point[j] + t*(w.Point[j]-u.Point[j])
			}
			// cIdx exceeds every index in common, so appending keeps
			// the tight set sorted.
			p.common = append(p.common, cIdx)
			pt = p.refine(pt, p.common)
			// A duplicate crossing keeps the first copy's point and
			// unites the tight sets.
			if dup := findPoint(next[nKept:], pt); dup != nil {
				dup.Tight = p.union(dup.Tight, p.common)
				continue
			}
			next = append(next, p.newVertex(pt, p.common))
		}
	}
	var added []*Vertex
	if len(next) > nKept {
		added = append([]*Vertex(nil), next[nKept:]...)
	}
	p.verts, p.spare = next, p.verts
	if len(p.verts) == 0 {
		return AddResult{}, ErrEmpty
	}
	p.rebuildTV()
	return AddResult{RemovedIDs: removedIDs, Added: added, OnPlane: onPlane}, nil
}

// isEdge reports whether the constraints in common define a
// one-dimensional face, i.e. their normals have rank dim−1. This is
// the exact adjacency test of the double description method and is
// correct under arbitrary degeneracy.
func (p *Polytope) isEdge(common []int32) bool {
	if len(common) < p.dim-1 {
		return false
	}
	return linalg.RankInPlace(p.normals(common), 1e-9) == p.dim-1
}

// normals loads the normals of constraints cs into the polytope's
// scratch matrix, one per row.
func (p *Polytope) normals(cs []int32) *linalg.Matrix {
	p.rows = linalg.Matrix{Rows: len(cs), Cols: p.dim, Data: grow(p.rows.Data, len(cs)*p.dim)}
	for r, c := range cs {
		copy(p.rows.Row(r), p.cons[c].Normal)
	}
	return &p.rows
}

// refine snaps a crossing point onto the exact intersection of dim
// linearly independent tight constraints, eliminating interpolation
// drift across long insertion sequences. It returns the snapped point
// in scratch storage, or pt itself on numerical failure.
func (p *Polytope) refine(pt []float64, tight []int32) []float64 {
	// A candidate joins only while len(basis) < dim, so capacity dim
	// keeps cand's append in place.
	basis := grow(p.basis, p.dim)[:0]
	for _, c := range tight {
		cand := append(basis, c)
		if linalg.RankInPlace(p.normals(cand), 1e-9) == len(cand) {
			basis = cand
			if len(basis) == p.dim {
				break
			}
		}
	}
	p.basis = basis
	if len(basis) < p.dim {
		return pt
	}
	rhs := p.rhs[:0]
	for _, c := range basis {
		rhs = append(rhs, p.cons[c].Offset)
	}
	p.rhs = rhs
	if p.lu.FactorInPlace(p.normals(basis)) != nil {
		return pt
	}
	p.solution = grow(p.solution, p.dim)
	x := geom.Vector(p.solution)
	if p.lu.SolveInto(x, rhs) != nil {
		return pt
	}
	if !x.IsFinite() || !x.Equal(pt, 1e-5) {
		return pt // reject wild solutions; keep the interpolated point
	}
	return x
}

// findPoint returns the first vertex of vs geometrically identical to
// pt, or nil. Duplicate crossings happen when more than dim
// constraints meet the cutting plane at one point.
func findPoint(vs []*Vertex, pt geom.Vector) *Vertex {
	for _, v := range vs {
		if v.Point.Equal(pt, 1e-8) {
			return v
		}
	}
	return nil
}

// union returns the union of two sorted tight sets, slab-carved.
func (p *Polytope) union(a, b []int32) []int32 {
	out := unionSorted(p.newTight(len(a) + len(b))[:0], a, b)
	return out[:len(out):len(out)]
}

// intersectSorted appends the intersection of two sorted slices to
// dst.
func intersectSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// unionSorted appends the union of two sorted slices to dst.
func unionSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
