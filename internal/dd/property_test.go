package dd

// Property-based tests (testing/quick) of the double-description
// engine: random cutting sequences must preserve the structural
// invariants and the V-representation must stay consistent with the
// H-representation.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// randomPolytope builds a box and applies a random cut sequence,
// returning nil if the polytope was emptied (valid outcome for some
// sequences, skipped by the properties).
func randomPolytope(seed int64) *Polytope {
	rng := rand.New(rand.NewSource(seed))
	d := 2 + rng.Intn(4)
	upper := make([]float64, d)
	for i := range upper {
		upper[i] = 0.5 + rng.Float64()
	}
	p, err := NewBox(upper)
	if err != nil {
		return nil
	}
	cuts := rng.Intn(10)
	for c := 0; c < cuts; c++ {
		n := make(geom.Vector, d)
		for j := range n {
			n[j] = rng.NormFloat64()
		}
		// Offset keeps a neighbourhood of some interior point, so the
		// polytope stays non-empty with high probability; emptied
		// polytopes abort the instance.
		off := 0.05 + rng.Float64()
		if _, err := p.AddHalfspace(n, off); err != nil {
			return nil
		}
	}
	return p
}

// Property: every vertex satisfies all constraints, sits exactly on
// its tight constraints, and tight normals span the space.
func TestPropertyVertexConsistency(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPolytope(seed)
		if p == nil {
			return true
		}
		for _, v := range p.Vertices() {
			if !p.Contains(v.Point, 1e-6) {
				return false
			}
			if len(v.Tight) < p.Dim() {
				return false
			}
			for _, c := range v.Tight {
				if math.Abs(planeEval(p.Constraint(int(c)), v.Point)) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: no two vertices coincide.
func TestPropertyNoDuplicateVertices(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPolytope(seed)
		if p == nil {
			return true
		}
		vs := p.Vertices()
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if vs[i].Point.Equal(vs[j].Point, 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the support function is monotone under cutting — adding
// a halfspace can only reduce max q·x.
func TestPropertySupportMonotoneUnderCuts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPolytope(seed ^ 0x7a)
		if p == nil {
			return true
		}
		d := p.Dim()
		q := make(geom.Vector, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		before, _ := p.MaxDot(q)
		n := make(geom.Vector, d)
		for j := range n {
			n[j] = rng.NormFloat64()
		}
		if _, err := p.AddHalfspace(n, 0.05+rng.Float64()); err != nil {
			return true // emptied: nothing to compare
		}
		after, _ := p.MaxDot(q)
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddResult bookkeeping is exact — removed IDs disappear,
// added vertices appear, on-plane vertices survive and are tight on
// the new constraint.
func TestPropertyAddResultBookkeeping(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPolytope(seed ^ 0x99)
		if p == nil {
			return true
		}
		d := p.Dim()
		before := map[int]bool{}
		for _, v := range p.Vertices() {
			before[v.ID] = true
		}
		n := make(geom.Vector, d)
		for j := range n {
			n[j] = rng.NormFloat64()
		}
		res, err := p.AddHalfspace(n, 0.05+rng.Float64())
		if err != nil {
			return true
		}
		now := map[int]bool{}
		for _, v := range p.Vertices() {
			now[v.ID] = true
		}
		for _, id := range res.RemovedIDs {
			if now[id] {
				return false
			}
		}
		for _, v := range res.Added {
			if !now[v.ID] || before[v.ID] {
				return false
			}
		}
		newIdx := int32(p.NumConstraints() - 1)
		for _, v := range res.OnPlane {
			if !now[v.ID] || !v.tightOn(newIdx) {
				return false
			}
		}
		if res.Redundant && (len(res.RemovedIDs) > 0 || len(res.Added) > 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
