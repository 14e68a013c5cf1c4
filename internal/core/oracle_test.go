package core

// Test oracles and short forms of the one evaluator. The oracles are
// independent reference implementations that production code does
// not call: the LP formulation of the maximum regret ratio, and D_conv
// extracted from scratch.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/lp"
	"repro/internal/skyline"
)

// MRRByLP computes the maximum regret ratio of sel over pts with one
// linear program per dataset point (the formulation the Greedy
// baseline uses). It is slower than EvalIndex.MRRGeometric and exists
// as an independent oracle: the two must agree to tolerance on every
// input.
func MRRByLP(pts []geom.Vector, sel []int) (float64, error) {
	if _, err := validatePoints(pts); err != nil {
		return 0, err
	}
	if err := checkSelection(len(pts), sel); err != nil {
		return 0, err
	}
	mrr := 0.0
	for _, q := range pts {
		z, err := supportByLP(context.Background(), pts, sel, q)
		if err != nil {
			return 0, err
		}
		if math.IsInf(z, 1) {
			return 1, nil // selection does not span all dimensions
		}
		if z > 1 {
			if r := 1 - 1/z; r > mrr {
				mrr = r
			}
		}
	}
	return mrr, nil
}

// supportByLP solves max{ω·q : ω ≥ 0, ω·pts[i] ≤ 1 ∀i ∈ selected}.
// The optimum is 1/cr(q, S). Unbounded LPs (possible only when the
// selection does not yet span every dimension, e.g. k < d) are
// reported as +Inf.
func supportByLP(ctx context.Context, pts []geom.Vector, selected []int, q geom.Vector) (float64, error) {
	return supportByLPCons(ctx, new(lp.Solver), consFor(nil, pts, selected), q)
}

// ConvexHullPoints returns the indices of D_conv from scratch: the
// happy filter (Lemma 3: D_conv ⊆ D_happy) followed by
// ConvexAmongHappy.
func ConvexHullPoints(pts []geom.Vector) ([]int, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	hp, err := happy.Compute(pts)
	if err != nil {
		return nil, fmt.Errorf("core: happy filter for hull extraction: %w", err)
	}
	return ConvexAmongHappy(pts, hp)
}

// evalMRR is the exact maximum regret ratio of sel over pts through a
// fresh full-scan EvalIndex.
func evalMRR(pts []geom.Vector, sel []int) (float64, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, err
	}
	return x.MRRGeometric(sel)
}

// sampledRegret is EvalIndex.SampledRegretParCtx through a fresh
// full-scan EvalIndex on the sequential path.
func sampledRegret(pts []geom.Vector, sel []int, samples int, seed int64) (worst, mean float64, err error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, 0, err
	}
	return x.SampledRegretParCtx(context.Background(), sel, samples, seed, 1)
}

// evalRegretOf is EvalIndex.RegretOf through a fresh full-scan
// EvalIndex.
func evalRegretOf(pts []geom.Vector, sel []int, w geom.Vector) (float64, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, err
	}
	return x.RegretOf(sel, w)
}

// evalWorstUtility is EvalIndex.WorstUtilityParCtx through a fresh
// full-scan EvalIndex on the sequential path.
func evalWorstUtility(pts []geom.Vector, sel []int) (geom.Vector, int, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return nil, -1, err
	}
	return x.WorstUtilityParCtx(context.Background(), sel, 1)
}

// BenchmarkMRREvaluation/LP prices the LP oracle on the candidate set
// the root package's BenchmarkMRREvaluation evaluates geometrically.
func BenchmarkMRREvaluation(b *testing.B) {
	pts, err := dataset.AntiCorrelated(10000, 5, 20140331)
	if err != nil {
		b.Fatal(err)
	}
	sky, err := skyline.Of(pts)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := Select(pts, happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints())
	if err != nil {
		b.Fatal(err)
	}
	res, err := GeoGreedy(cand, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("LP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MRRByLP(cand, res.Indices); err != nil {
				b.Fatal(err)
			}
		}
	})
}
