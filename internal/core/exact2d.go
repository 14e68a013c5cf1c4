package core

import (
	"errors"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/happy"
)

// ErrNeed2D is returned by Exact2D for non-planar input.
var ErrNeed2D = errors.New("core: Exact2D requires 2-dimensional points")

// Exact2D solves the MRRM problem optimally for d = 2 — a capability
// beyond the paper (whose algorithms are greedy heuristics in every
// dimension), used here to measure how close GeoGreedy gets to the
// true optimum on planar data.
//
// Method: for a fixed regret budget r, point p "covers" direction
// angle θ when ω(θ)·p ≥ (1−r)·max_q ω(θ)·q. Each dataset point q
// constrains p's coverage to a contiguous arc of [0, π/2] (a
// halfplane cut of the quarter circle), so p's coverage is an
// interval, and "mrr(S) ≤ r" becomes "the intervals of S cover
// [0, π/2]" — a minimum interval cover, solvable greedily. The
// optimal regret is found by binary search on r; by Lemma 2 only
// happy points need to be considered. The returned MRR is evaluated
// exactly on the final selection (Lemma 1), so it is not merely an
// upper bound from the search tolerance.
func Exact2D(pts []geom.Vector, k int) (*Result, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return nil, err
	}
	if len(pts[0]) != 2 {
		return nil, ErrNeed2D
	}
	if k < 1 {
		return nil, ErrBadK
	}

	// Candidate reduction (Lemma 2): an optimal solution exists
	// within the happy points. Falling back to all points would be
	// correct but slower.
	cand := happyIndices(pts)

	// Feasibility oracle at regret budget r: can ≤ k candidate
	// intervals cover the quarter circle?
	feasible := func(r float64) ([]int, bool) {
		return coverWithBudget(pts, cand, r, k)
	}

	best, ok := feasible(0)
	if !ok {
		lo, hi := 0.0, 1.0
		for iter := 0; iter < 64; iter++ {
			mid := (lo + hi) / 2
			if sel, ok := feasible(mid); ok {
				best, hi = sel, mid
			} else {
				lo = mid
			}
		}
	}
	if best == nil {
		// r → 1 is always feasible with any single point covering
		// everything; reaching here indicates numerical trouble.
		return nil, errors.New("core: Exact2D search failed to find a feasible selection")
	}
	mrr, err := x.MRRGeometric(best)
	if err != nil {
		return nil, err
	}
	return &Result{Indices: best, MRR: mrr, ExhaustedAt: -1}, nil
}

// happyIndices computes the happy points (package happy is already a
// dependency of conv.go). On the unreachable error path it degrades
// to the full index set, which is correct but slower.
func happyIndices(pts []geom.Vector) []int {
	hp, err := happy.Compute(pts)
	if err != nil || len(hp) == 0 {
		hp = make([]int, len(pts))
		for i := range hp {
			hp[i] = i
		}
	}
	return hp
}

// interval is a closed arc [lo, hi] of direction angles.
type interval struct {
	lo, hi float64
	idx    int
}

// coverageInterval returns the arc of [0, π/2] that candidate p
// covers at budget r, or ok=false when it covers nothing.
func coverageInterval(pts []geom.Vector, cand []int, p geom.Vector, r float64) (float64, float64, bool) {
	lo, hi := 0.0, math.Pi/2
	scale := 1 - r
	for _, qi := range cand {
		q := pts[qi]
		vx := p[0] - scale*q[0]
		vy := p[1] - scale*q[1]
		switch {
		case vx >= 0 && vy >= 0:
			// No constraint from q.
		case vx < 0 && vy < 0:
			return 0, 0, false
		case vx >= 0: // vy < 0: covered for θ ≤ θ*
			theta := math.Atan2(vx, -vy)
			if theta < hi {
				hi = theta
			}
		default: // vx < 0, vy ≥ 0: covered for θ ≥ θ*
			// f(θ) = vx cosθ + vy sinθ ≥ 0 ⟺ tanθ ≥ −vx/vy.
			theta := math.Atan2(-vx, vy)
			if theta > lo {
				lo = theta
			}
		}
		if lo > hi+1e-12 {
			return 0, 0, false
		}
	}
	return lo, hi, true
}

// coverWithBudget runs the classic greedy minimum interval cover of
// [0, π/2] and reports a selection of at most k candidates, if one
// exists at budget r.
func coverWithBudget(pts []geom.Vector, cand []int, r float64, k int) ([]int, bool) {
	const eps = 1e-12
	ivs := make([]interval, 0, len(cand))
	for _, ci := range cand {
		lo, hi, ok := coverageInterval(pts, cand, pts[ci], r)
		if ok {
			ivs = append(ivs, interval{lo: lo, hi: hi, idx: ci})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var sel []int
	covered := 0.0
	i := 0
	for covered < math.Pi/2-eps {
		bestHi := covered
		bestIdx := -1
		for ; i < len(ivs) && ivs[i].lo <= covered+eps; i++ {
			if ivs[i].hi > bestHi {
				bestHi = ivs[i].hi
				bestIdx = ivs[i].idx
			}
		}
		if bestIdx < 0 {
			return nil, false // gap
		}
		sel = append(sel, bestIdx)
		if len(sel) > k {
			return nil, false
		}
		covered = bestHi
	}
	sort.Ints(sel)
	return sel, true
}
