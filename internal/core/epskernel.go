package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrBadEps rejects ε-kernel tolerances outside [0, 1).
var ErrBadEps = errors.New("core: eps must be in [0, 1)")

// EpsKernelParCtx greedily selects an ε-kernel of the candidate
// points: a subset C such that for every nonnegative preference w,
// max over C of w·p ≥ (1−eps)·max over pts of w·p — equivalently, the
// maximum regret ratio of C measured against pts is at most eps. It
// runs the same dual-hull greedy loop as GeoGreedy with the stop
// threshold relaxed from support > 1 (strictly outside the hull) to
// support > 1/(1−eps), so the loop ends exactly when every remaining
// candidate's regret contribution has dropped to eps. The budget is
// unbounded (k = n): the kernel is as large as the data demands, and
// its size depends on eps and the hull geometry, not on n.
//
// extraSeeds, when non-nil, are candidate indices inserted right after
// the dimension boundary seeds — the direction-net supports package
// coreset feeds in to warm-start the hull. They join the kernel
// unconditionally (duplicates skipped), which can only shrink the
// greedy tail, never violate the bound.
//
// eps = 0 degenerates to the exact convex-boundary expansion: the loop
// runs until every candidate is inside the hull, so the result carries
// MRR 0. The returned Result reports the kernel indices in selection
// order and the MRR of the kernel against pts (≤ eps up to the usual
// geometric tolerance).
func EpsKernelParCtx(ctx context.Context, pts []geom.Vector, eps float64, extraSeeds []int, workers int) (*Result, error) {
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadEps, eps)
	}
	return greedyHullTrace(ctx, pts, len(pts), workers, 1/(1-eps), extraSeeds, nil, nil)
}
