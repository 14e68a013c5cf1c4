package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/parallel"
)

// Greedy is the best-known baseline the paper compares against
// (Nanongkai et al., VLDB 2010): the same greedy skeleton as
// GeoGreedy, but each iteration finds the candidate contributing the
// maximum regret ratio by solving one linear program per candidate —
// the "time-consuming constrained programming" of the paper's
// Section IV-A. For candidate q and selection S the LP is
//
//	maximize   ω·q
//	subject to ω·p ≤ 1 for every p ∈ S,   ω ≥ 0 ;
//
// its optimum z equals 1/cr(q, S), so the candidate with the largest
// optimum is the one GeoGreedy finds geometrically, and the regret
// contributed is 1 − 1/z. Greedy and GeoGreedy therefore return the
// same selection (ties aside) — property-tested — while their
// runtime profiles differ exactly as the paper reports.
func Greedy(pts []geom.Vector, k int) (*Result, error) {
	return greedyPar(context.Background(), pts, k, 1)
}

// GreedyParCtx is Greedy with cooperative cancellation and
// intra-query parallelism. The context is checked before every
// per-candidate LP and inside each simplex solve (per pivot batch), so
// even iterations over large candidate sets stop promptly; the
// returned error wraps ctx.Err() when canceled. The independent
// per-candidate LP solves of each iteration fan out over up to
// `workers` goroutines (0 = GOMAXPROCS, 1 = the exact
// sequential path). Each LP optimum is deterministic, the optima land
// in a per-candidate slot and the argmax fold runs sequentially in
// index order, so the selection is byte-identical to the sequential
// one for every worker count.
func GreedyParCtx(ctx context.Context, pts []geom.Vector, k, workers int) (*Result, error) {
	return greedyPar(ctx, pts, k, workers)
}

// grainLP is the minimum-work grain for per-candidate LP sweeps:
// sweeps under 2*grainLP candidates run inline (see the cutoff in
// parallel.newPlan), because at that size the whole sweep costs less
// than the goroutine fan-out it would buy.
const grainLP = 1024

func greedyPar(ctx context.Context, pts []geom.Vector, k, workers int) (*Result, error) {
	_, err := validatePoints(pts)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if k > len(pts) {
		k = len(pts)
	}

	taken := make([]bool, len(pts))
	selected := make([]int, 0, k)
	seeds := BoundaryPoints(pts)
	if len(seeds) > k {
		seeds = seeds[:k]
	}
	for _, i := range seeds {
		taken[i] = true
		selected = append(selected, i)
	}

	// Per-iteration scratch: the LP optimum of every candidate, and
	// the shared constraint rows ω·p ≤ 1 for the current selection
	// (read-only during the fan-out; lp copies coefficients into its
	// tableau, so sharing across solver goroutines is safe).
	zs := floatScratch(len(pts))
	defer putFloatScratch(zs)
	cons := make([]lp.Constraint, 0, k)

	solveAll := func() error {
		cons = consFor(cons[:0], pts, selected)
		// Each item is a full simplex solve, so chunks of any size
		// amortize scheduling; grainLP instead sets the minimum sweep
		// worth fanning out at all. Below 2*grainLP candidates the
		// cutoff in parallel.For takes the inline path — a sweep that
		// small finishes in single-digit milliseconds and the fan-out
		// overhead was measurably slowing it down (the 0.94x
		// Paper/Greedy speedup in BENCH_7f78352.json).
		return parallel.For(ctx, len(pts), workers, grainLP, func(start, end int) error {
			for i := start; i < end; i++ {
				if taken[i] {
					continue
				}
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: Greedy canceled after %d selections: %w", len(selected), err)
				}
				z, err := supportByLPCons(ctx, cons, pts[i])
				if err != nil {
					return err
				}
				zs[i] = z
			}
			return nil
		})
	}

	exhausted := -1
	fresh := false // zs reflects the current selection
	for len(selected) < k {
		if err := solveAll(); err != nil {
			return nil, err
		}
		fresh = true
		best, bestVal := -1, 1.0+geom.Eps
		for i := range pts {
			if !taken[i] && zs[i] > bestVal {
				best, bestVal = i, zs[i]
			}
		}
		if best < 0 {
			exhausted = len(selected)
			break
		}
		taken[best] = true
		selected = append(selected, best)
		fresh = false
	}

	// Final regret over the remaining candidates. An unbounded
	// candidate LP means the selection does not span all dimensions
	// (k below the seed count); fall back to the exact geometric
	// evaluation so Greedy and GeoGreedy stay comparable there.
	if !fresh {
		if err := solveAll(); err != nil {
			return nil, err
		}
	}
	mrr := 0.0
	for i := range pts {
		if taken[i] {
			continue
		}
		z := zs[i]
		if math.IsInf(z, 1) {
			exact, err := MRRGeometricParCtx(ctx, pts, selected, workers)
			if err != nil {
				return nil, err
			}
			mrr = exact
			break
		}
		if z > 1 {
			if r := 1 - 1/z; r > mrr {
				mrr = r
			}
		}
	}

	return &Result{Indices: selected, MRR: mrr, ExhaustedAt: exhausted}, nil
}

// consFor appends the selection's LP constraints ω·p ≤ 1 to cons.
// Coefficient slices alias the dataset vectors; the solver copies
// them before mutating its tableau.
func consFor(cons []lp.Constraint, pts []geom.Vector, selected []int) []lp.Constraint {
	for _, si := range selected {
		cons = append(cons, lp.Constraint{Coeffs: pts[si], Rel: lp.LE, RHS: 1})
	}
	return cons
}

// supportByLP solves max{ω·q : ω ≥ 0, ω·pts[i] ≤ 1 ∀i ∈ selected}.
// The optimum is 1/cr(q, S). Unbounded LPs (possible only when the
// selection does not yet span every dimension, e.g. k < d) are
// reported as +Inf.
func supportByLP(ctx context.Context, pts []geom.Vector, selected []int, q geom.Vector) (float64, error) {
	return supportByLPCons(ctx, consFor(nil, pts, selected), q)
}

// supportByLPCons is supportByLP over prebuilt constraint rows, so
// the per-iteration fan-out shares one constraint slice across all
// candidate solves.
func supportByLPCons(ctx context.Context, cons []lp.Constraint, q geom.Vector) (float64, error) {
	sol, err := lp.SolveCtx(ctx, &lp.Problem{Objective: q, Maximize: true, Constraints: cons})
	if err != nil {
		return 0, fmt.Errorf("core: greedy candidate LP: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
		return sol.Objective, nil
	case lp.Unbounded:
		return math.Inf(1), nil
	default:
		// ω = 0 is always feasible; infeasibility indicates a solver
		// failure.
		return 0, fmt.Errorf("core: greedy candidate LP unexpectedly %v", sol.Status)
	}
}
