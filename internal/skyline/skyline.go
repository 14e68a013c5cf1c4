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
// cache in front of a dominance window (kernel.go). It reads points as
// geom.Rows, the pointer-free layout every dataset epoch stores, behind
// these entry points:
//
//   - OfRows / OfSubset — the exact pass over all rows, with the
//     caller's context checked inside it, or over an index subset;
//   - EpsCoverRows — the ε-relaxed cover of an index range, the same
//     pass with a slackened probe (epscover.go); at eps = 0 the exact
//     pass;
//   - UpdateInsertRows / UpdateDeleteRows — exact delta maintenance of
//     a held skyline under single-tuple mutations (update.go).
//
// Of, ComputeParallel, EpsCover, UpdateInsert and UpdateDelete take a
// []geom.Vector instead: each flattens it into rows and runs the same
// code, for callers that hold vectors (the experiments and the
// end-to-end benchmark's replay).
//
// Every entry returns indices into the input, sorted ascending;
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
	if d == 0 {
		return fmt.Errorf("%w: zero-dimensional points", ErrBadInput)
	}
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

// validateRows checks that rows subset[k] of r, or every row when
// subset is nil, are finite, naming a bad row by its position k.
func validateRows(r geom.Rows, subset []int) error {
	n := len(subset)
	if subset == nil {
		n = r.Len()
	}
	for k := 0; k < n; k++ {
		i := k
		if subset != nil {
			i = subset[k]
		}
		if !r.Row(i).IsFinite() {
			return fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadInput, k)
		}
	}
	return nil
}

// Of returns the indices of the skyline points of pts, sorted
// ascending, computed by one exact pass over pts flattened into rows.
func Of(pts []geom.Vector) ([]int, error) {
	if err := validate(pts); err != nil {
		return nil, err
	}
	return exactPass(nil, geom.Flatten(pts), nil, 0)
}

// OfRows is Of over rows, with the caller's context checked inside the
// pass every few thousand arrivals; the result is the exact skyline
// whenever it returns nil error.
func OfRows(ctx context.Context, r geom.Rows) ([]int, error) {
	if err := validateRows(r, nil); err != nil {
		return nil, err
	}
	return exactPass(ctx.Err, r, nil, 0)
}

// OfSubset computes the exact skyline of r restricted to the given
// index subset, returning original indices ascending.
func OfSubset(r geom.Rows, subset []int) ([]int, error) {
	if len(subset) == 0 {
		return nil, nil
	}
	for _, i := range subset {
		if i < 0 || i >= r.Len() {
			return nil, fmt.Errorf("%w: subset index %d outside [0, %d)", ErrBadInput, i, r.Len())
		}
	}
	if err := validateRows(r, subset); err != nil {
		return nil, err
	}
	return exactPass(nil, r, subset, 0)
}

// ComputeParallel returns what Of returns. It keeps its workers
// argument because the end-to-end benchmark passes one, but the pass
// is sequential (DESIGN.md §11) and ignores it.
func ComputeParallel(pts []geom.Vector, _ int) ([]int, error) { return Of(pts) }
