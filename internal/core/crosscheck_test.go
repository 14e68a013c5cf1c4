package core

// Cross-oracle tests: the general d-dimensional dual machinery must
// agree with the independent exact 2-D implementation (hull2d) on
// planar inputs, and the happy filter must agree with the geometric
// critical-ratio picture.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/happy"
	"repro/internal/hull2d"
)

// hull2dCriticalRatio returns cr(q, S) for d = 2 in closed form: the
// ratio ‖q′‖/‖q‖ where q′ is the intersection of ray 0→q with the
// boundary of the orthotope hull of pts, walked as segments along
// hull2d's upper-right chain. It returns +Inf if the ray never leaves
// the hull (cannot happen for positive q against a bounded hull) and
// an error for non-positive q.
func hull2dCriticalRatio(pts []hull2d.Point, q hull2d.Point) (float64, error) {
	if q.X <= 0 || q.Y <= 0 {
		return 0, fmt.Errorf("hull2d: query point (%g, %g) must be strictly positive", q.X, q.Y)
	}
	chain := hull2d.UpperRightChain(pts)
	var maxX, maxY float64
	for _, p := range pts {
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	// Build the full boundary as segments: (0,maxY) → chain… → (maxX,0).
	bound := make([]hull2d.Point, 0, len(chain)+2)
	bound = append(bound, hull2d.Point{X: 0, Y: maxY})
	bound = append(bound, chain...)
	bound = append(bound, hull2d.Point{X: maxX, Y: 0})
	best := math.Inf(1)
	for i := 0; i+1 < len(bound); i++ {
		if t, ok := raySegment(q, bound[i], bound[i+1]); ok && t < best {
			best = t
		}
	}
	return best, nil
}

// raySegment returns t such that t·q lies on segment a–b, if the ray
// 0→q crosses it with t ≥ 0.
func raySegment(q, a, b hull2d.Point) (float64, bool) {
	// Solve t·q = a + s(b−a), 0 ≤ s ≤ 1.
	dx, dy := b.X-a.X, b.Y-a.Y
	den := q.X*dy - q.Y*dx
	if math.Abs(den) < 1e-15 {
		return 0, false
	}
	t := (a.X*dy - a.Y*dx) / den
	if t < 0 {
		return 0, false
	}
	// Parameter along the segment, computed against the larger delta
	// (den ≠ 0 guarantees the segment is not a point).
	var s float64
	if math.Abs(dx) >= math.Abs(dy) {
		s = (t*q.X - a.X) / dx
	} else {
		s = (t*q.Y - a.Y) / dy
	}
	if s < -1e-9 || s > 1+1e-9 {
		return 0, false
	}
	return t, true
}

// TestDualCriticalRatioMatchesHull2D: cr(q, S) from the dual polytope
// equals the planar ray/segment computation.
func TestDualCriticalRatioMatchesHull2D(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(30)
		pts := antiCorrelated(rng, n, 2)
		selN := 2 + rng.Intn(n-1)
		sel := rng.Perm(n)[:selN]

		selPts := make([]hull2d.Point, 0, selN)
		for _, s := range sel {
			selPts = append(selPts, hull2d.Point{X: pts[s][0], Y: pts[s][1]})
		}
		for probe := 0; probe < 5; probe++ {
			q := pts[rng.Intn(n)]
			viaDual, err := CriticalRatioOf(pts, sel, q)
			if err != nil {
				t.Fatal(err)
			}
			via2D, err := hull2dCriticalRatio(selPts, hull2d.Point{X: q[0], Y: q[1]})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(viaDual-via2D) > 1e-6*(1+via2D) {
				t.Fatalf("trial %d: dual %v vs hull2d %v (q=%v sel=%v)",
					trial, viaDual, via2D, q, sel)
			}
		}
	}
}

// TestHappyAgreesWithCriticalRatioPicture: a point that is strictly
// inside Conv(D \ {p}) with critical ratio comfortably above 1 ought
// not to be a hull extreme point, and hull extreme points always have
// cr ≤ 1 against the others.
func TestHappyAgreesWithCriticalRatioPicture(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(25)
		pts := antiCorrelated(rng, n, 3)
		hp, err := happy.Compute(pts)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := ConvexAmongHappy(pts, hp)
		if err != nil {
			t.Fatal(err)
		}
		inConv := map[int]bool{}
		for _, c := range conv {
			inConv[c] = true
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for i := 0; i < n; i++ {
			others := make([]int, 0, n-1)
			for _, j := range all {
				if j != i {
					others = append(others, j)
				}
			}
			cr, err := CriticalRatioOf(pts, others, pts[i])
			if err != nil {
				t.Fatal(err)
			}
			if inConv[i] && cr > 1+1e-7 {
				t.Fatalf("trial %d: extreme point %d strictly inside others' hull (cr=%v)", trial, i, cr)
			}
			if !inConv[i] && cr < 1-1e-7 {
				t.Fatalf("trial %d: non-extreme point %d outside others' hull (cr=%v)", trial, i, cr)
			}
		}
	}
}

func TestCriticalRatioInside(t *testing.T) {
	pts := []hull2d.Point{{X: 1, Y: 0.1}, {X: 0.1, Y: 1}, {X: 0.7, Y: 0.7}}
	// A point well inside the hull has critical ratio > 1.
	cr, err := hull2dCriticalRatio(pts, hull2d.Point{X: 0.3, Y: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if cr <= 1 {
		t.Fatalf("interior cr = %v, want > 1", cr)
	}
	// A point on the hull boundary has cr = 1.
	cr, err = hull2dCriticalRatio(pts, hull2d.Point{X: 0.7, Y: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cr-1) > 1e-9 {
		t.Fatalf("boundary cr = %v, want 1", cr)
	}
}

func TestCriticalRatioOutside(t *testing.T) {
	pts := []hull2d.Point{{X: 1, Y: 0.1}, {X: 0.1, Y: 1}}
	// (0.9, 0.9) is far outside the hull of these two plus orthotopes.
	cr, err := hull2dCriticalRatio(pts, hull2d.Point{X: 0.9, Y: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if cr >= 1 {
		t.Fatalf("outside cr = %v, want < 1", cr)
	}
}

func TestCriticalRatioRejectsNonPositive(t *testing.T) {
	if _, err := hull2dCriticalRatio([]hull2d.Point{{X: 1, Y: 1}}, hull2d.Point{X: 0, Y: 1}); err == nil {
		t.Fatal("non-positive query accepted")
	}
}

// TestCriticalRatioAxisAlignedExact: for a single point p = (a, b),
// the hull is the rectangle [0,a]×[0,b]; the critical ratio of q is
// min(a/qx, b/qy).
func TestCriticalRatioRectangleClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		a, b := 0.2+0.8*rng.Float64(), 0.2+0.8*rng.Float64()
		qx, qy := 0.05+rng.Float64(), 0.05+rng.Float64()
		cr, err := hull2dCriticalRatio([]hull2d.Point{{X: a, Y: b}}, hull2d.Point{X: qx, Y: qy})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Min(a/qx, b/qy)
		if math.Abs(cr-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: cr = %v, want %v", trial, cr, want)
		}
	}
}
