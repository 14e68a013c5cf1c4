// Package skyline computes the skyline (Pareto frontier, maxima) of a
// point set: the points not dominated by any other point, where p
// dominates q when p ≥ q on every dimension and p > q on at least
// one.
//
// The skyline is the candidate set used by all k-regret work prior to
// the paper (Nanongkai et al. run Greedy over D_sky); the paper's
// happy points are a subset of it (Lemma 3), and Table III /
// Figures 8 and 10 compare candidate sets directly. The package has
// one skyline operator, a sequential sort-filter pass with a killer
// cache in front of a dominance window (kernel.go), behind these entry
// points:
//
//   - Of / OfSubset — the exact pass over all points or an index
//     subset;
//   - ComputeParallel / ComputeParallelCtx — the same pass, with the
//     caller's context checked inside it;
//   - EpsCover — the ε-relaxed cover of an index range, the same pass
//     with a slackened probe (epscover.go); at eps = 0 the exact pass;
//   - UpdateInsert / UpdateDelete — exact delta maintenance of a held
//     skyline under single-tuple mutations (update.go).
//
// Every entry returns indices into the input slice, sorted ascending;
// duplicates are all retained (none dominates its copies).
package skyline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/geom"
)

// ErrBadInput flags dimension mismatches or non-finite coordinates.
var ErrBadInput = errors.New("skyline: bad input")

// validate checks dimensional consistency and finiteness.
func validate(pts []geom.Vector) error {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	for i, p := range pts {
		if len(p) != d {
			return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadInput, i, len(p), d)
		}
		if !p.IsFinite() {
			return fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadInput, i)
		}
	}
	return nil
}

// Of returns the indices of the skyline points of pts, sorted
// ascending, computed by one exact pass.
func Of(pts []geom.Vector) ([]int, error) {
	if err := validate(pts); err != nil {
		return nil, err
	}
	return exactPass(nil, pts, nil, 0, len(pts))
}

// OfSubset computes the exact skyline of pts restricted to the given
// index subset, returning original indices ascending.
func OfSubset(pts []geom.Vector, subset []int) ([]int, error) {
	if len(subset) == 0 {
		return nil, nil
	}
	sub := make([]geom.Vector, len(subset))
	for k, i := range subset {
		if i < 0 || i >= len(pts) {
			return nil, fmt.Errorf("%w: subset index %d outside [0, %d)", ErrBadInput, i, len(pts))
		}
		sub[k] = pts[i]
	}
	if err := validate(sub); err != nil {
		return nil, err
	}
	return exactPass(nil, pts, subset, 0, len(subset))
}

// ComputeParallel returns what Of returns. It keeps its workers
// argument because the end-to-end benchmark passes one, but the pass
// is sequential (DESIGN.md §11) and ignores it.
func ComputeParallel(pts []geom.Vector, workers int) ([]int, error) {
	return ComputeParallelCtx(context.Background(), pts, workers)
}

// ComputeParallelCtx is ComputeParallel with the caller's context,
// checked inside the pass every few thousand arrivals; the result is
// the exact skyline whenever it returns nil error.
func ComputeParallelCtx(ctx context.Context, pts []geom.Vector, _ int) ([]int, error) {
	if err := validate(pts); err != nil {
		return nil, err
	}
	return exactPass(ctx.Err, pts, nil, 0, len(pts))
}
