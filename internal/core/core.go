// Package core implements the paper's k-regret query algorithms —
// GeoGreedy and StoredList (Peng & Wong, ICDE 2014) — together with
// the best-known baseline they are measured against (Greedy,
// Nanongkai et al., VLDB 2010), extraction of the candidate set D_conv
// and the one regret evaluator, EvalIndex: exact (Lemma 1), sampled
// and per-utility regret all come from its methods, and every solver
// that cannot read its regret off its own search state evaluates
// through one. Reference implementations — the LP regret oracle, D_conv
// from scratch — live in the package's tests.
//
// All algorithms operate on a candidate slice of strictly positive
// d-dimensional points and return indices into it. By the paper's
// Lemma 2 the optimal solution lives inside the happy points, so the
// intended pipeline is:
//
//	sky, _  := skyline.Of(points)
//	cert    := happy.ComputeAmongSkylineCertParallel(points, sky, 0)
//	cand, _ := core.Select(points, cert.HappyPoints()) // gather candidates
//	res, _  := core.GeoGreedyParCtx(ctx, cand, k, 0)
//
// The top-level package kregret wires this pipeline behind a
// friendlier API.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/lp"
)

// Input validation errors.
var (
	ErrNoPoints  = errors.New("core: no candidate points")
	ErrBadPoint  = errors.New("core: bad candidate point")
	ErrBadK      = errors.New("core: k must be at least 1")
	ErrBadSubset = errors.New("core: selection index out of range")
)

// ErrDegenerate marks a numerical failure of the geometry machinery
// mid-run — a NaN critical ratio, a support cache gone non-finite —
// as opposed to invalid input. Callers (package kregret) treat it,
// together with dd degeneracy and LP iteration caps, as retriable via
// the degradation chain.
var ErrDegenerate = errors.New("core: numerical degeneracy")

// IsNumerical reports whether err is a numerical failure of the
// solvers — GeoGreedy degeneracy, a dd polytope collapsing to empty,
// or the simplex iteration cap — rather than invalid input or
// cancellation. These are exactly the failures for which retrying
// with perturbed data or a more robust (if slower or weaker)
// algorithm can still produce an answer.
func IsNumerical(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, ErrDegenerate) ||
		errors.Is(err, dd.ErrEmpty) ||
		errors.Is(err, lp.ErrIterationCap)
}

// Result is the outcome of a k-regret algorithm.
type Result struct {
	// Indices of the selected points within the candidate slice, in
	// selection order: first the d dimension boundary points, then
	// one point per greedy iteration.
	Indices []int
	// MRR is the maximum regret ratio of the selection measured
	// against the candidate set (exact for the full dataset whenever
	// the candidates include all of D_conv — in particular for happy
	// or skyline candidates, by Lemma 2/3).
	MRR float64
	// ExhaustedAt, when ≥ 0, records the selection size at which the
	// regret hit zero and the algorithm stopped early (|Conv(D)| ≤ k
	// case in the paper). −1 when the full budget k was used.
	ExhaustedAt int
}

// validatePoints checks the candidate slice: non-empty, uniform
// dimension, finite, strictly positive (the paper's standing
// assumptions after normalization).
func validatePoints(pts []geom.Vector) (int, error) {
	if len(pts) == 0 {
		return 0, ErrNoPoints
	}
	d := len(pts[0])
	if d < 1 {
		return 0, fmt.Errorf("%w: zero-dimensional point", ErrBadPoint)
	}
	for i, p := range pts {
		if len(p) != d {
			return 0, fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadPoint, i, len(p), d)
		}
		if !p.IsFinite() {
			return 0, fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadPoint, i)
		}
		if !p.AllPositive() {
			return 0, fmt.Errorf("%w: point %d (%v) must be strictly positive", ErrBadPoint, i, p)
		}
	}
	return d, nil
}

// Select gathers pts[idx] for each index, preserving order — a
// convenience for building candidate slices from skyline/happy index
// sets. The result shares pts' vectors.
func Select(pts []geom.Vector, idx []int) ([]geom.Vector, error) {
	return gather(len(pts), func(i int) geom.Vector { return pts[i] }, idx)
}

// SelectRows is Select over rows: capacity-capped views of the rows
// idx of r, in order — how a candidate-sized subset of a dataset epoch
// reaches the solvers without a copy of its coordinates.
func SelectRows(r geom.Rows, idx []int) ([]geom.Vector, error) {
	return gather(r.Len(), r.Row, idx)
}

// gather returns at(j) for each j in idx, refusing any j outside
// [0, n).
func gather(n int, at func(int) geom.Vector, idx []int) ([]geom.Vector, error) {
	out := make([]geom.Vector, len(idx))
	for i, j := range idx {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("%w: %d (n=%d)", ErrBadSubset, j, n)
		}
		out[i] = at(j)
	}
	return out, nil
}

// BoundaryPoints returns, for each dimension, the index of a point
// maximizing that dimension (smallest index on ties), deduplicated
// while preserving dimension order — the seed set of both Greedy and
// GeoGreedy (Algorithm 1, lines 2–4).
func BoundaryPoints(pts []geom.Vector) []int {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	seen := make(map[int]bool, d)
	out := make([]int, 0, d)
	for j := 0; j < d; j++ {
		best := 0
		for i := 1; i < len(pts); i++ {
			if pts[i][j] > pts[best][j] {
				best = i
			}
		}
		if !seen[best] {
			seen[best] = true
			out = append(out, best)
		}
	}
	return out
}

// maxPerDim returns the per-dimension maxima of pts.
func maxPerDim(pts []geom.Vector) []float64 {
	d := len(pts[0])
	maxs := make([]float64, d)
	for _, p := range pts {
		for j, x := range p {
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	return maxs
}
