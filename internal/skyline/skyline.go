// Package skyline computes the skyline (Pareto frontier, maxima) of a
// point set: the points not dominated by any other point, where p
// dominates q when p ≥ q on every dimension and p > q on at least
// one.
//
// The skyline is the candidate set used by all k-regret work prior to
// the paper (Nanongkai et al. run Greedy over D_sky); the paper's
// happy points are a subset of it (Lemma 3), and Table III /
// Figures 8 and 10 compare candidate sets directly. The package has
// one skyline operator, the blocked sort-filter kernel (kernel.go),
// behind three entry points:
//
//   - Of / OfSubset — one kernel pass over all points or an index
//     subset;
//   - ComputeParallel — the kernel per stripe, then once more over the
//     union of stripe skylines (parallel.go);
//   - UpdateInsert / UpdateDelete — exact delta maintenance of a held
//     skyline under single-tuple mutations (update.go).
//
// EpsCover (epscover.go) builds the ε-relaxed cover on the same
// dominance window. Every entry returns indices into the input slice,
// sorted ascending; duplicates are all retained (none dominates its
// copies).
package skyline

import (
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
// ascending, computed by one pass of the blocked kernel.
func Of(pts []geom.Vector) ([]int, error) {
	if err := validate(pts); err != nil {
		return nil, err
	}
	return computeKernel(pts)
}
