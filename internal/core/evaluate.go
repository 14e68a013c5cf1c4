package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// ErrEmptySelection is returned when evaluating an empty selection.
var ErrEmptySelection = errors.New("core: empty selection")

// checkSelection validates a selection index set against the dataset.
func checkSelection(pts []geom.Vector, sel []int) error {
	if len(sel) == 0 {
		return ErrEmptySelection
	}
	for _, i := range sel {
		if i < 0 || i >= len(pts) {
			return fmt.Errorf("%w: %d (n=%d)", ErrBadSubset, i, len(pts))
		}
	}
	return nil
}

// MRRGeometric computes the exact maximum regret ratio of the
// selection sel over the dataset pts using the paper's Lemma 1:
// mrr(S) = 1 − min_q cr(q, S), with critical ratios read off the dual
// hull of S. This is the reference evaluation used by all experiment
// harnesses.
func MRRGeometric(pts []geom.Vector, sel []int) (float64, error) {
	return MRRGeometricParCtx(context.Background(), pts, sel, 1)
}

// MRRGeometricParCtx is MRRGeometric with cooperative cancellation and
// intra-query parallelism. The context is checked inside every
// dual-hull insertion and once per support-scan batch; the returned
// error wraps ctx.Err() when canceled. The per-point support scan
// over the selection's dual hull fans out over up to `workers`
// goroutines (0 = GOMAXPROCS, 1 = the exact sequential path).
// The hull is read-only during the scan and the max reduction is
// order-independent, so the result is identical for every worker
// count; a NaN support poisons the reduction and surfaces as
// ErrDegenerate instead of being silently dropped.
//
// The free function builds a transient unpruned EvalIndex per call;
// callers evaluating the same dataset repeatedly should hold an
// EvalIndex (optionally with its extreme set installed) and use its
// methods, which is what package kregret's Dataset does.
func MRRGeometricParCtx(ctx context.Context, pts []geom.Vector, sel []int, workers int) (float64, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, err
	}
	return x.MRRGeometricParCtx(ctx, sel, workers)
}

// MRRByLP computes the same quantity with one linear program per
// dataset point (the formulation the Greedy baseline uses). It is
// slower than MRRGeometric and exists as an independent oracle: the
// two must agree to tolerance on every input.
func MRRByLP(pts []geom.Vector, sel []int) (float64, error) {
	return MRRByLPCtx(context.Background(), pts, sel)
}

// MRRByLPCtx is MRRByLP with cooperative cancellation: the context is
// checked inside every per-point simplex solve, so a deadline stops
// the oracle mid-scan. The returned error wraps ctx.Err() when
// canceled.
func MRRByLPCtx(ctx context.Context, pts []geom.Vector, sel []int) (float64, error) {
	if _, err := validatePoints(pts); err != nil {
		return 0, err
	}
	if err := checkSelection(pts, sel); err != nil {
		return 0, err
	}
	mrr := 0.0
	for _, q := range pts {
		z, err := supportByLP(ctx, pts, sel, q)
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

// MRRSampled estimates the maximum regret ratio by evaluating the
// regret of `samples` random linear utility functions with weight
// vectors uniform on the non-negative unit sphere. It lower-bounds
// the exact value and converges to it; useful as a sanity oracle and
// for utility classes without geometric structure.
func MRRSampled(pts []geom.Vector, sel []int, samples int, seed int64) (float64, error) {
	return MRRSampledParCtx(context.Background(), pts, sel, samples, seed, 1)
}

// MRRSampledParCtx is MRRSampled with cooperative cancellation and
// intra-query parallelism. The utilities are drawn sequentially from
// the seeded generator (so the sample set is identical for every
// worker count), their regrets are evaluated in parallel into
// per-sample slots, and the max fold is order-independent — the
// estimate is byte-identical to the sequential one.
func MRRSampledParCtx(ctx context.Context, pts []geom.Vector, sel []int, samples int, seed int64, workers int) (float64, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, err
	}
	return x.MRRSampledParCtx(ctx, sel, samples, seed, workers)
}

// sampleCtxBatch is the number of per-utility regret evaluations
// between cancellation checks; each evaluation already scans the full
// dataset, so a small batch keeps cancellation prompt.
const sampleCtxBatch = 16

// AverageRegretSampled estimates the average regret ratio of the
// selection over utility functions drawn uniformly from the
// non-negative unit sphere — the paper's first "future direction"
// (Section VIII), provided as an extension.
func AverageRegretSampled(pts []geom.Vector, sel []int, samples int, seed int64) (float64, error) {
	return AverageRegretSampledParCtx(context.Background(), pts, sel, samples, seed, 1)
}

// AverageRegretSampledParCtx is AverageRegretSampled with cooperative
// cancellation and intra-query parallelism. Regrets are evaluated in
// parallel into per-sample slots but summed sequentially in sample
// order — float addition is order-dependent, and the sequential fold
// keeps the estimate byte-identical for every worker count.
func AverageRegretSampledParCtx(ctx context.Context, pts []geom.Vector, sel []int, samples int, seed int64, workers int) (float64, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, err
	}
	return x.AverageRegretSampledParCtx(ctx, sel, samples, seed, workers)
}

// RegretOf returns rr(S, f) for the linear utility with weight
// vector w (Definition 1): 1 − max_{p∈S} w·p / max_{q∈D} w·q.
func RegretOf(pts []geom.Vector, sel []int, w geom.Vector) (float64, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return 0, err
	}
	return x.RegretOf(sel, w)
}

// randomUtility draws a weight vector uniformly from the unit sphere
// restricted to the non-negative orthant (absolute Gaussian
// components, normalized).
func randomUtility(rng *rand.Rand, d int) geom.Vector {
	w := make(geom.Vector, d)
	randomUtilityInto(rng, w)
	return w
}

// randomUtilityInto is randomUtility writing into caller-provided
// storage — the sampled evaluators draw thousands per call and pool
// one flat backing instead.
func randomUtilityInto(rng *rand.Rand, w geom.Vector) {
	for {
		var norm float64
		for j := range w {
			w[j] = math.Abs(rng.NormFloat64())
			norm += w[j] * w[j]
		}
		if norm > 1e-18 {
			norm = math.Sqrt(norm)
			for j := range w {
				w[j] /= norm
			}
			return
		}
	}
}

// WorstUtility returns a maximum regret ratio function of the
// selection (Definition 2): the facet normal of Conv(S) whose
// critical point realizes the minimum critical ratio, normalized to
// unit length, together with the index of the witness point in pts
// that attains the regret. When the regret is zero it returns a nil
// vector and witness −1.
func WorstUtility(pts []geom.Vector, sel []int) (geom.Vector, int, error) {
	return WorstUtilityParCtx(context.Background(), pts, sel, 1)
}

// WorstUtilityParCtx is WorstUtility with cooperative cancellation
// (see MRRGeometricParCtx for the check granularity) and intra-query
// parallelism, mirroring the other ParCtx signatures: the per-point
// support scan fans out over up to `workers` goroutines (0 =
// GOMAXPROCS, 1 = the exact sequential path) and the witness fold
// runs sequentially in index order, so the answer is byte-identical at
// every worker count.
func WorstUtilityParCtx(ctx context.Context, pts []geom.Vector, sel []int, workers int) (geom.Vector, int, error) {
	x, err := NewEvalIndex(pts)
	if err != nil {
		return nil, -1, err
	}
	return x.WorstUtilityParCtx(ctx, sel, workers)
}

// SupportByLPForTest exposes the Greedy candidate LP to tests in
// other packages (cross-checking GeoGreedy's dual support values).
func SupportByLPForTest(ctx context.Context, pts []geom.Vector, sel []int, q geom.Vector) (float64, error) {
	return supportByLP(ctx, pts, sel, q)
}
