package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/assert"
	"repro/internal/geom"
	"repro/internal/hull2d"
)

// Face is one face of the paper's convex hull Conv(S) (the hull of
// the orthotope closure of the selection) that does not pass through
// the origin, represented by its supporting hyperplane
// Normal·x = Offset with a non-negative normal.
type Face struct {
	Normal geom.Vector
	Offset float64
}

// FacesOf returns every non-origin face of Conv(S) for the selection
// sel over pts, sorted lexicographically by normal for determinism.
// It is the primal reading of the dual hull the solvers use, kept
// here to cross-check that dual against hull geometry.
//
// The faces are read off the dual polytope Q(S): each dual vertex v
// is a face with hyperplane v·x = 1 (DESIGN.md §1). Faces induced by
// the orthotope closure (hyperplanes touching the coordinate
// boundaries) are included — they are exactly the dual vertices that
// are tight on box constraints. The origin dual vertex (ω = 0, which
// would be the "hyperplane at infinity") is skipped.
func FacesOf(pts []geom.Vector, sel []int) ([]Face, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	if err := checkSelection(pts, sel); err != nil {
		return nil, err
	}
	hull, err := buildHull(context.Background(), pts, sel)
	if err != nil {
		return nil, err
	}
	var faces []Face
	for _, v := range hull.poly.Vertices() {
		if v.Point.Norm() < geom.Eps {
			continue // origin: no face
		}
		faces = append(faces, Face{Normal: v.Point.Clone(), Offset: 1})
	}
	sort.Slice(faces, func(a, b int) bool {
		na, nb := faces[a].Normal, faces[b].Normal
		for j := range na {
			// Exact ordered comparisons keep the order transitive;
			// an epsilon here would make sorting unstable.
			if na[j] < nb[j] {
				return true
			}
			if na[j] > nb[j] {
				return false
			}
		}
		return false
	})
	if assert.Enabled {
		normals := make([]geom.Vector, len(faces))
		offsets := make([]float64, len(faces))
		for i, f := range faces {
			normals[i], offsets[i] = f.Normal, f.Offset
		}
		selPts := make([]geom.Vector, len(sel))
		for i, s := range sel {
			selPts[i] = pts[s]
		}
		assert.DownwardClosed(normals, offsets, selPts, geom.LooseEps)
	}
	return faces, nil
}

// CriticalRatioOf computes cr(q, S) (Definition 3) for an arbitrary
// query point against a selection: the fraction of the way from the
// origin to the boundary of Conv(S) at which q sits (< 1 outside,
// 1 on the boundary, > 1 inside).
func CriticalRatioOf(pts []geom.Vector, sel []int, q geom.Vector) (float64, error) {
	if _, err := validatePoints(pts); err != nil {
		return 0, err
	}
	if err := checkSelection(pts, sel); err != nil {
		return 0, err
	}
	if err := geom.CheckSameDim(pts[0], q); err != nil {
		return 0, err
	}
	if !q.IsFinite() || !q.AllPositive() {
		return 0, ErrBadPoint
	}
	hull, err := buildHull(context.Background(), pts, sel)
	if err != nil {
		return 0, err
	}
	cr := hull.criticalRatio(q)
	if assert.Enabled {
		assert.CriticalRatio(cr, geom.Eps)
	}
	return cr, nil
}

// criticalRatio returns cr(q, S) per Definition 3 of the paper.
func (h *dualHull) criticalRatio(q geom.Vector) float64 {
	s, _ := h.poly.MaxDot(q)
	if s <= geom.Eps {
		// Q(S) contains a full-dimensional box, so the support of any
		// strictly positive q is strictly positive; a vanishing value
		// means q ≈ 0 and the ratio diverges (infinitely deep inside).
		return math.Inf(1)
	}
	return 1 / s
}

func TestFacesOfSquare(t *testing.T) {
	// One point (1,1): Conv is the unit square; non-origin faces are
	// x ≤ 1 and y ≤ 1.
	pts := []geom.Vector{{1, 1}}
	faces, err := FacesOf(pts, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(faces) != 2 {
		t.Fatalf("%d faces, want 2: %v", len(faces), faces)
	}
	if !faces[0].Normal.Equal(geom.Vector{0, 1}, 1e-9) || !faces[1].Normal.Equal(geom.Vector{1, 0}, 1e-9) {
		t.Fatalf("faces %v", faces)
	}
}

// TestFacesSupportEverySelectedPoint: each selected point lies on at
// least one face and below none.
func TestFacesSupportSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(3)
		pts := antiCorrelated(rng, 30, d)
		res, err := GeoGreedy(pts, d+2)
		if err != nil {
			t.Fatal(err)
		}
		faces, err := FacesOf(pts, res.Indices)
		if err != nil {
			t.Fatal(err)
		}
		if len(faces) == 0 {
			t.Fatal("no faces")
		}
		for _, si := range res.Indices {
			p := pts[si]
			onSome := false
			for _, f := range faces {
				v := f.Normal.Dot(p) - f.Offset
				if v > 1e-7 {
					t.Fatalf("selected point %v above face %v", p, f)
				}
				if math.Abs(v) <= 1e-7 {
					onSome = true
				}
			}
			// Greedy-selected points are hull extreme points of the
			// selection, hence on the boundary.
			if !onSome {
				t.Fatalf("selected point %v on no face", p)
			}
		}
		// Every dataset point's critical ratio is consistent with the
		// face-wise ray computation.
		for probe := 0; probe < 5; probe++ {
			q := pts[rng.Intn(len(pts))]
			cr, err := CriticalRatioOf(pts, res.Indices, q)
			if err != nil {
				t.Fatal(err)
			}
			// Direct ray computation over faces: the exit scale is
			// min over faces of Offset/(Normal·q).
			exit := math.Inf(1)
			for _, f := range faces {
				den := f.Normal.Dot(q)
				if den > 1e-12 {
					if s := f.Offset / den; s < exit {
						exit = s
					}
				}
			}
			if math.Abs(cr-exit) > 1e-6*(1+exit) {
				t.Fatalf("cr %v vs face-ray %v", cr, exit)
			}
		}
	}
}

// TestFacesMatch2DChain: in two dimensions the faces must reproduce
// the hull2d upper-right chain segments plus the two axis-touching
// faces.
func TestFacesMatch2DChain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pts := antiCorrelated(rng, 40, 2)
	// Select everything so Conv(S) = Conv(D).
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	faces, err := FacesOf(pts, all)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := hull2d.FromVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	chain := hull2d.UpperRightChain(p2)
	// Faces between consecutive chain points plus the two axis faces:
	// |chain| + 1 faces in total.
	want := len(chain) + 1
	if len(faces) != want {
		t.Fatalf("%d faces, want %d (chain %d)", len(faces), want, len(chain))
	}
}

func TestCriticalRatioOfValidation(t *testing.T) {
	pts := []geom.Vector{{1, 1}}
	if _, err := CriticalRatioOf(pts, []int{0}, geom.Vector{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := CriticalRatioOf(pts, []int{0}, geom.Vector{0, 1}); err == nil {
		t.Fatal("non-positive query accepted")
	}
	if _, err := CriticalRatioOf(pts, nil, geom.Vector{1, 1}); err == nil {
		t.Fatal("empty selection accepted")
	}
	// Interior, boundary, exterior classification.
	cr, err := CriticalRatioOf(pts, []int{0}, geom.Vector{0.5, 0.5})
	if err != nil || cr <= 1 {
		t.Fatalf("interior cr %v, %v", cr, err)
	}
	cr, err = CriticalRatioOf(pts, []int{0}, geom.Vector{1, 1})
	if err != nil || math.Abs(cr-1) > 1e-9 {
		t.Fatalf("boundary cr %v, %v", cr, err)
	}
}

// TestFacesAndCriticalRatio checks Lemma 1 on a GeoGreedy answer:
// every selected tuple lies on the boundary of Conv(S) (cr = 1), and
// the tuple that witnesses the answer's regret has cr = 1 − MRR.
func TestFacesAndCriticalRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := antiCorrelated(rng, 60, 3)
	res, err := GeoGreedy(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	faces, err := FacesOf(pts, res.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if len(faces) == 0 {
		t.Fatal("no faces")
	}
	for _, i := range res.Indices {
		cr, err := CriticalRatioOf(pts, res.Indices, pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cr-1) > 1e-7 {
			t.Fatalf("selected tuple cr %v", cr)
		}
	}
	if res.MRR <= 1e-6 {
		t.Fatalf("MRR %v: the instance must leave regret for the witness check", res.MRR)
	}
	x, err := NewEvalIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, witness, err := x.WorstUtilityParCtx(context.Background(), res.Indices, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := CriticalRatioOf(pts, res.Indices, pts[witness])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((1-cr)-res.MRR) > 1e-6 {
		t.Fatalf("witness cr %v inconsistent with MRR %v", cr, res.MRR)
	}
	if _, err := FacesOf(pts, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
}
