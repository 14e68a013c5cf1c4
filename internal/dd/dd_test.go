package dd

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/lp"
)

// NumConstraints returns the number of inserted halfspaces, including
// the initial box constraints.
func (p *Polytope) NumConstraints() int { return len(p.cons) }

// Constraint returns the i-th halfspace as a hyperplane a·x = b with
// the interior on the a·x < b side.
func (p *Polytope) Constraint(i int) geom.Hyperplane { return p.cons[i] }

// tightOn reports whether constraint c is tight at the vertex.
func (v *Vertex) tightOn(c int32) bool {
	i := sort.Search(len(v.Tight), func(i int) bool { return v.Tight[i] >= c })
	return i < len(v.Tight) && v.Tight[i] == c
}

// planeEval returns h.Normal·x − h.Offset (positive above, negative
// below).
func planeEval(h geom.Hyperplane, x geom.Vector) float64 { return h.Normal.Dot(x) - h.Offset }

// Contains reports whether x satisfies every constraint within eps.
func (p *Polytope) Contains(x geom.Vector, eps float64) bool {
	for _, c := range p.cons {
		if planeEval(c, x) > eps {
			return false
		}
	}
	return true
}

// maxDotRef is the pre-kernel reference scan MaxDot is cross-validated
// against.
func (p *Polytope) maxDotRef(q geom.Vector) (float64, *Vertex) {
	best := math.Inf(-1)
	var arg *Vertex
	for _, v := range p.verts {
		if d := v.Point.Dot(q); d > best {
			best, arg = d, v
		}
	}
	return best, arg
}

func newBoxT(t *testing.T, upper ...float64) *Polytope {
	t.Helper()
	p, err := NewBox(upper)
	if err != nil {
		t.Fatalf("NewBox: %v", err)
	}
	return p
}

func TestNewBoxShape(t *testing.T) {
	p := newBoxT(t, 1, 2, 3)
	if p.Dim() != 3 {
		t.Fatalf("Dim = %d", p.Dim())
	}
	if p.NumVertices() != 8 {
		t.Fatalf("NumVertices = %d, want 8", p.NumVertices())
	}
	if p.NumConstraints() != 6 {
		t.Fatalf("NumConstraints = %d, want 6", p.NumConstraints())
	}
	// Every vertex must have exactly d sorted tight constraints and
	// lie on them.
	for _, v := range p.Vertices() {
		if len(v.Tight) != 3 {
			t.Fatalf("vertex %v has %d tight constraints", v.Point, len(v.Tight))
		}
		if !sort.SliceIsSorted(v.Tight, func(a, b int) bool { return v.Tight[a] < v.Tight[b] }) {
			t.Fatalf("tight set unsorted: %v", v.Tight)
		}
		for _, c := range v.Tight {
			if got := planeEval(p.Constraint(int(c)), v.Point); math.Abs(got) > 1e-12 {
				t.Fatalf("vertex %v not on its tight constraint %d (eval %v)", v.Point, c, got)
			}
		}
		if !p.Contains(v.Point, 1e-12) {
			t.Fatalf("vertex %v outside polytope", v.Point)
		}
	}
}

func TestNewBoxErrors(t *testing.T) {
	if _, err := NewBox(nil); err == nil {
		t.Fatal("empty box accepted")
	}
	if _, err := NewBox(make([]float64, 17)); err == nil {
		t.Fatal("dimension 17 accepted")
	}
	if _, err := NewBox([]float64{1, 0}); err == nil {
		t.Fatal("zero upper bound accepted")
	}
	if _, err := NewBox([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("infinite upper bound accepted")
	}
}

func TestAddHalfspaceSimpleCut(t *testing.T) {
	// Cut the unit square with x + y ≤ 1: removes (1,1), adds nothing
	// new geometrically beyond (1,0) and (0,1) which are on the plane.
	p := newBoxT(t, 1, 1)
	res, err := p.AddHalfspace(geom.Vector{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redundant {
		t.Fatal("cut reported redundant")
	}
	if len(res.RemovedIDs) != 1 {
		t.Fatalf("removed %d vertices, want 1", len(res.RemovedIDs))
	}
	if len(res.Added) != 0 {
		t.Fatalf("added %d vertices, want 0 (corners already on the plane)", len(res.Added))
	}
	if len(res.OnPlane) != 2 {
		t.Fatalf("OnPlane %d, want 2", len(res.OnPlane))
	}
	if p.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3 (triangle)", p.NumVertices())
	}
}

func TestAddHalfspaceGeneralCut(t *testing.T) {
	// Cut unit square with x + 2y ≤ 1.5: removes (0,1) and (1,1),
	// creates (0, 0.75) and (1, 0.25).
	p := newBoxT(t, 1, 1)
	res, err := p.AddHalfspace(geom.Vector{1, 2}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RemovedIDs) != 2 || len(res.Added) != 2 {
		t.Fatalf("removed %d added %d, want 2/2", len(res.RemovedIDs), len(res.Added))
	}
	wantPts := map[[2]float64]bool{{0, 0.75}: false, {1, 0.25}: false}
	for _, v := range res.Added {
		key := [2]float64{math.Round(v.Point[0]*1e9) / 1e9, math.Round(v.Point[1]*1e9) / 1e9}
		if _, ok := wantPts[key]; !ok {
			t.Fatalf("unexpected new vertex %v", v.Point)
		}
		wantPts[key] = true
	}
	for k, seen := range wantPts {
		if !seen {
			t.Fatalf("missing new vertex %v", k)
		}
	}
}

func TestAddHalfspaceRedundant(t *testing.T) {
	p := newBoxT(t, 1, 1)
	res, err := p.AddHalfspace(geom.Vector{1, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Redundant {
		t.Fatal("far halfspace not reported redundant")
	}
	if p.NumVertices() != 4 {
		t.Fatalf("vertices changed: %d", p.NumVertices())
	}
}

func TestAddHalfspaceEmpty(t *testing.T) {
	p := newBoxT(t, 1, 1)
	if _, err := p.AddHalfspace(geom.Vector{-1, -1}, -5); err != ErrEmpty {
		t.Fatalf("got %v, want ErrEmpty", err)
	}
}

func TestAddHalfspaceBadInput(t *testing.T) {
	p := newBoxT(t, 1, 1)
	if _, err := p.AddHalfspace(geom.Vector{1}, 1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := p.AddHalfspace(geom.Vector{math.NaN(), 1}, 1); err == nil {
		t.Fatal("NaN normal accepted")
	}
	if _, err := p.AddHalfspace(geom.Vector{1, 1}, math.Inf(1)); err == nil {
		t.Fatal("Inf offset accepted")
	}
}

func TestVertexIDsStable(t *testing.T) {
	p := newBoxT(t, 1, 1, 1)
	before := map[int]geom.Vector{}
	for _, v := range p.Vertices() {
		before[v.ID] = v.Point.Clone()
	}
	res, err := p.AddHalfspace(geom.Vector{1, 1, 1}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[int]bool{}
	for _, id := range res.RemovedIDs {
		removed[id] = true
	}
	for _, v := range p.Vertices() {
		if old, ok := before[v.ID]; ok {
			if removed[v.ID] {
				t.Fatalf("removed ID %d still present", v.ID)
			}
			if !old.Equal(v.Point, 0) {
				t.Fatalf("surviving vertex %d moved", v.ID)
			}
		}
	}
}

// TestDegenerateThroughCorner cuts exactly through existing vertices:
// they must be kept, marked tight, and no duplicates created.
func TestDegenerateThroughCorner(t *testing.T) {
	p := newBoxT(t, 1, 1, 1)
	// Plane x+y+z ≤ 2 passes exactly through (1,1,0),(1,0,1),(0,1,1),
	// cutting off only (1,1,1).
	res, err := p.AddHalfspace(geom.Vector{1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RemovedIDs) != 1 {
		t.Fatalf("removed %d, want 1", len(res.RemovedIDs))
	}
	if len(res.Added) != 0 {
		t.Fatalf("added %d, want 0", len(res.Added))
	}
	if len(res.OnPlane) != 3 {
		t.Fatalf("OnPlane %d, want 3", len(res.OnPlane))
	}
	if p.NumVertices() != 7 {
		t.Fatalf("NumVertices = %d, want 7", p.NumVertices())
	}
	// The on-plane vertices must now list the new constraint tight.
	newIdx := int32(p.NumConstraints() - 1)
	for _, v := range res.OnPlane {
		if !v.tightOn(newIdx) {
			t.Fatalf("on-plane vertex %v missing tight mark", v.Point)
		}
	}
}

// maxDotLP solves max q·x over the polytope's constraint system with
// the simplex solver — the independent oracle for MaxDot.
func maxDotLP(t *testing.T, p *Polytope, q geom.Vector) float64 {
	t.Helper()
	// Variables must be non-negative for the LP; our polytopes here
	// always include x ≥ 0 from NewBox, so drop those constraints and
	// keep the rest.
	var cons []lp.Constraint
	for i := 0; i < p.NumConstraints(); i++ {
		h := p.Constraint(i)
		neg := true
		for _, x := range h.Normal {
			if x > 0 {
				neg = false
				break
			}
		}
		if neg && h.Offset == 0 {
			continue // a −x_i ≤ 0 constraint, implicit in the LP
		}
		cons = append(cons, lp.Constraint{Coeffs: h.Normal, Rel: lp.LE, RHS: h.Offset})
	}
	sol, err := new(lp.Solver).Solve(&lp.Problem{Objective: q, Maximize: true, Constraints: cons})
	if err != nil {
		t.Fatalf("lp oracle: %v", err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("lp oracle status %v", sol.Status)
	}
	return sol.Objective
}

// TestRandomAgainstLP builds random halfspace systems over random
// boxes and checks that for random directions the vertex-based
// support equals the LP optimum — the core soundness property the
// k-regret algorithms rely on.
func TestRandomAgainstLP(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(4) // 2..5
		upper := make([]float64, d)
		for i := range upper {
			upper[i] = 0.5 + rng.Float64()
		}
		p, err := NewBox(upper)
		if err != nil {
			t.Fatal(err)
		}
		nCuts := 1 + rng.Intn(8)
		for c := 0; c < nCuts; c++ {
			normal := make(geom.Vector, d)
			for j := range normal {
				normal[j] = 0.05 + rng.Float64()
			}
			// Offsets chosen to usually cut but never empty the
			// polytope (origin always satisfies offset > 0).
			offset := 0.2 + rng.Float64()
			if _, err := p.AddHalfspace(normal, offset); err != nil {
				t.Fatalf("trial %d cut %d: %v", trial, c, err)
			}
		}
		for probe := 0; probe < 10; probe++ {
			q := make(geom.Vector, d)
			for j := range q {
				q[j] = rng.Float64()
			}
			got, arg := p.MaxDot(q)
			want := maxDotLP(t, p, q)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("trial %d: MaxDot = %v (at %v), LP = %v", trial, got, arg.Point, want)
			}
		}
		// Structural invariants after all cuts.
		checkInvariants(t, p)
	}
}

// checkInvariants verifies every vertex is feasible, lies exactly on
// its tight constraints, and that tight constraint normals span R^d.
func checkInvariants(t *testing.T, p *Polytope) {
	t.Helper()
	d := p.Dim()
	for _, v := range p.Vertices() {
		if !p.Contains(v.Point, 1e-6) {
			t.Fatalf("vertex %v infeasible", v.Point)
		}
		if len(v.Tight) < d {
			t.Fatalf("vertex %v has only %d tight constraints", v.Point, len(v.Tight))
		}
		for _, c := range v.Tight {
			h := p.Constraint(int(c))
			if math.Abs(planeEval(h, v.Point)) > 1e-6 {
				t.Fatalf("vertex %v not on tight constraint %d", v.Point, c)
			}
		}
	}
	// No duplicate vertices.
	for i, a := range p.Vertices() {
		for _, b := range p.Vertices()[i+1:] {
			if a.Point.Equal(b.Point, 1e-9) {
				t.Fatalf("duplicate vertices %v (ids %d, %d)", a.Point, a.ID, b.ID)
			}
		}
	}
}

// TestIncrementalMatchesFresh verifies that inserting halfspaces one
// by one yields the same vertex set as inserting them in a different
// order (the V-representation is order-independent).
func TestIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(3)
		upper := make([]float64, d)
		for i := range upper {
			upper[i] = 1
		}
		type hs struct {
			n geom.Vector
			b float64
		}
		var cuts []hs
		for c := 0; c < 5; c++ {
			n := make(geom.Vector, d)
			for j := range n {
				n[j] = 0.1 + rng.Float64()
			}
			cuts = append(cuts, hs{n, 0.3 + rng.Float64()})
		}
		build := func(order []int) *Polytope {
			p, _ := NewBox(upper)
			for _, i := range order {
				if _, err := p.AddHalfspace(cuts[i].n, cuts[i].b); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		fwd := make([]int, len(cuts))
		rev := make([]int, len(cuts))
		for i := range cuts {
			fwd[i] = i
			rev[i] = len(cuts) - 1 - i
		}
		a, b := build(fwd), build(rev)
		if a.NumVertices() != b.NumVertices() {
			t.Fatalf("trial %d: vertex counts differ: %d vs %d", trial, a.NumVertices(), b.NumVertices())
		}
		// Same geometric vertex sets.
		for _, va := range a.Vertices() {
			found := false
			for _, vb := range b.Vertices() {
				if va.Point.Equal(vb.Point, 1e-7) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: vertex %v missing in reversed build", trial, va.Point)
			}
		}
	}
}

// TestMaxDotEmptyDirection checks support in the zero direction.
func TestMaxDotZeroDirection(t *testing.T) {
	p := newBoxT(t, 1, 1)
	got, v := p.MaxDot(geom.Vector{0, 0})
	if got != 0 || v == nil {
		t.Fatalf("MaxDot(0) = %v, %v", got, v)
	}
}

// TestContains checks the H-representation membership helper.
func TestContains(t *testing.T) {
	p := newBoxT(t, 1, 1)
	if !p.Contains(geom.Vector{0.5, 0.5}, 0) {
		t.Fatal("interior point rejected")
	}
	if p.Contains(geom.Vector{1.5, 0.5}, 1e-9) {
		t.Fatal("exterior point accepted")
	}
}
