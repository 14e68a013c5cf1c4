package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dd"
	"repro/internal/geom"
)

// dualHull wraps the incremental halfspace intersection of package dd
// as the polar dual of the paper's orthotope convex hull Conv(S):
//
//	Q(S) = { ω ≥ 0 : ω·p ≤ 1 ∀p ∈ S } ,
//
// with the correspondence (DESIGN.md §1)
//
//	cr(q, S) = 1 / max_{v ∈ vertices(Q(S))} v·q .
//
// The polytope is seeded with the box 0 ≤ ω_i ≤ 1/maxDim_i, whose
// upper bounds are implied by the constraints of the per-dimension
// boundary points, so once those are inserted the vertex set is
// exactly vert(Q(S)).
type dualHull struct {
	poly *dd.Polytope
	dim  int
}

// newDualHull creates the dual for candidates whose per-dimension
// maxima are maxs (all must be positive).
func newDualHull(maxs []float64) (*dualHull, error) {
	upper := make([]float64, len(maxs))
	for i, m := range maxs {
		if !(m > 0) {
			return nil, fmt.Errorf("%w: dimension %d has non-positive maximum %g", ErrBadPoint, i, m)
		}
		upper[i] = 1 / m
	}
	poly, err := dd.NewBox(upper)
	if err != nil {
		return nil, fmt.Errorf("core: building dual hull: %w", err)
	}
	return &dualHull{poly: poly, dim: len(maxs)}, nil
}

// insert adds point p to the selection set S, i.e. halfspace ω·p ≤ 1
// to Q(S). The context bounds the double-description update.
func (h *dualHull) insert(ctx context.Context, p geom.Vector) (dd.AddResult, error) {
	res, err := h.poly.AddHalfspaceCtx(ctx, p, 1)
	if err != nil {
		return res, fmt.Errorf("core: inserting point into dual hull: %w", err)
	}
	return res, nil
}

// supportOf returns max_{v} v·q over current vertices and the argmax
// vertex; cr(q, S) = 1/support.
func (h *dualHull) supportOf(q geom.Vector) (float64, *dd.Vertex) {
	return h.poly.MaxDot(q)
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
