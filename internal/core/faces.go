package core

import (
	"context"
	"sort"

	"repro/internal/assert"
	"repro/internal/geom"
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
//
// The faces are read off the dual polytope Q(S): each dual vertex v
// is a face with hyperplane v·x = 1 (DESIGN.md §1). Faces induced by
// the orthotope closure (hyperplanes touching the coordinate
// boundaries) are included — they are exactly the dual vertices that
// are tight on box constraints. The origin dual vertex (ω = 0, which
// would be the "hyperplane at infinity") is skipped.
//
// This accessor exists for inspection, visualization and testing; the
// query algorithms use the dual directly.
func FacesOf(pts []geom.Vector, sel []int) ([]Face, error) {
	return FacesOfCtx(context.Background(), pts, sel)
}

// FacesOfCtx is FacesOf with cooperative cancellation: the context is
// checked inside every dual-hull insertion. The returned error wraps
// ctx.Err() when canceled.
func FacesOfCtx(ctx context.Context, pts []geom.Vector, sel []int) ([]Face, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	if err := checkSelection(pts, sel); err != nil {
		return nil, err
	}
	hull, err := buildHull(ctx, pts, sel)
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
	return CriticalRatioOfCtx(context.Background(), pts, sel, q)
}

// CriticalRatioOfCtx is CriticalRatioOf with cooperative cancellation
// (see FacesOfCtx for the check granularity).
func CriticalRatioOfCtx(ctx context.Context, pts []geom.Vector, sel []int, q geom.Vector) (float64, error) {
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
	hull, err := buildHull(ctx, pts, sel)
	if err != nil {
		return 0, err
	}
	cr := hull.criticalRatio(q)
	if assert.Enabled {
		assert.CriticalRatio(cr, geom.Eps)
	}
	return cr, nil
}
