package core

import (
	"fmt"
	"sort"

	"repro/internal/assert"
	"repro/internal/geom"
	"repro/internal/lp"
)

// ConvexAmongHappy returns the indices of D_conv among the happy
// points happyIdx of pts: the points that are extreme points of
// Conv(pts) (the orthotope convex hull of the paper). By Lemma 3
// D_conv ⊆ D_happy, so only the happy points are tested, each for
// coverage: p is NOT extreme iff it lies in the downward-closed hull
// of the other candidates, i.e. iff the covering LP
//
//	minimize  Σ_q y_q
//	subject to Σ_q y_q·q[j] ≥ p[j]  for every dimension j,  y ≥ 0
//
// (over the other happy points q) has optimum ≤ 1. The LP has only d
// constraints, so it stays fast even with thousands of candidate
// columns. Exact duplicates of p are excluded from the covering set
// so that repeated extreme points are still reported (each copy once).
func ConvexAmongHappy(pts []geom.Vector, happyIdx []int) ([]int, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	cand, err := Select(pts, happyIdx)
	if err != nil {
		return nil, err
	}
	return convexAmong(cand, happyIdx)
}

// ConvexAmongHappyRows is ConvexAmongHappy over validated rows, such as
// a dataset epoch's: it reads only the happy points' rows.
func ConvexAmongHappyRows(r geom.Rows, happyIdx []int) ([]int, error) {
	cand, err := SelectRows(r, happyIdx)
	if err != nil {
		return nil, err
	}
	return convexAmong(cand, happyIdx)
}

// convexAmong returns, ascending, the members idx[k] whose points
// cand[k] are extreme among cand.
func convexAmong(cand []geom.Vector, idx []int) ([]int, error) {
	if len(cand) == 0 {
		return nil, nil
	}
	d := len(cand[0])
	var (
		out    []int
		solver lp.Solver
	)
	for k, p := range cand {
		// Covering set: the other candidates, minus exact duplicates
		// of p.
		cols := make([]int, 0, len(cand)-1)
		for c, q := range cand {
			if c == k || q.Equal(p, 0) {
				continue
			}
			cols = append(cols, c)
		}
		extreme := true
		if len(cols) > 0 {
			covered, err := coverable(&solver, cand, cols, p, d)
			if err != nil {
				return nil, err
			}
			extreme = !covered
		}
		if extreme {
			out = append(out, idx[k])
		}
	}
	sort.Ints(out)
	return out, nil
}

// coverable solves the covering LP on s and reports whether the
// optimum is ≤ 1 (p is dominated by a convex combination, hence
// interior or on a face without being a vertex).
func coverable(s *lp.Solver, pts []geom.Vector, cols []int, p geom.Vector, d int) (bool, error) {
	obj := make([]float64, len(cols))
	for i := range obj {
		obj[i] = 1
	}
	cons := make([]lp.Constraint, d)
	for j := 0; j < d; j++ {
		coeffs := make([]float64, len(cols))
		for i, qi := range cols {
			coeffs[i] = pts[qi][j]
		}
		cons[j] = lp.Constraint{Coeffs: coeffs, Rel: lp.GE, RHS: p[j]}
	}
	sol, err := s.Solve(&lp.Problem{Objective: obj, Maximize: false, Constraints: cons})
	if err != nil {
		return false, fmt.Errorf("core: hull covering LP: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
		if assert.Enabled {
			// The objective Σ y_q over y ≥ 0 can never be negative; a
			// negative optimum means the tableau lost feasibility.
			assert.That(sol.Objective >= -geom.Eps,
				"hull covering LP returned negative mass %g", sol.Objective)
		}
		return sol.Objective <= 1+1e-7, nil
	case lp.Infeasible:
		// Cannot cover p at all (it has the strict per-dimension
		// maximum somewhere): definitely extreme.
		return false, nil
	default:
		return false, fmt.Errorf("core: hull covering LP unexpectedly %v", sol.Status)
	}
}
