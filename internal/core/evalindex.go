package core

import (
	"fmt"
	"math"
	"math/rand"

	"context"

	"repro/internal/assert"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// EvalIndex is the reusable evaluation substrate for one dataset: the
// points flattened into a row-major mat.PointMatrix (built once, so
// every later scan is a contiguous kernel sweep instead of a
// pointer-chase over []geom.Vector), plus an optional extreme set —
// the skyline indices — that the "max over D" side of every evaluator
// scans instead of the full dataset.
//
// Pruning is exact, not approximate (DESIGN.md §12): every utility the
// evaluators maximize over D is non-negative (validated weights,
// sampled utilities, dual-hull vertices), and for w ≥ 0 the maximum of
// w·q over D is attained at a skyline point with the identical float64
// bits — FP multiply and add are monotone on non-negative operands, so
// a dominating point's dot product evaluates ≥ bit-for-bit. The
// differential suite asserts pruned and full-scan evaluators agree
// byte-identically on every distribution, dimension and worker count.
//
// The zero extreme set (SetExtreme never called) means full scans:
// the free-function evaluators and the reference side of the
// differential tests.
type EvalIndex struct {
	pts  []geom.Vector
	m    *mat.PointMatrix
	ext  []int            // skyline indices, ascending; nil = no pruning
	extM *mat.PointMatrix // gathered rows of ext
}

// NewEvalIndex validates the dataset and flattens it. The point slice
// is retained (read-only) for selection-side lookups and hull builds.
func NewEvalIndex(pts []geom.Vector) (*EvalIndex, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	return &EvalIndex{pts: pts, m: mat.FromVectors(pts)}, nil
}

// SetExtreme installs the extreme (skyline) index set consulted by the
// max-over-D side of the evaluators. idx must be non-empty and hold
// valid ascending dataset indices — it typically comes straight from
// the skyline pass, but it may also arrive from a persisted snapshot,
// so it is validated rather than trusted.
func (x *EvalIndex) SetExtreme(idx []int) error {
	if len(idx) == 0 {
		return fmt.Errorf("%w: empty extreme set", ErrBadSubset)
	}
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			return fmt.Errorf("%w: extreme set not strictly ascending at position %d", ErrBadSubset, k)
		}
	}
	em, err := x.m.Gather(idx)
	if err != nil {
		return fmt.Errorf("%w: extreme set: %v", ErrBadSubset, err)
	}
	x.ext = append([]int(nil), idx...)
	x.extM = em
	return nil
}

// Pruned reports whether an extreme set is installed.
func (x *EvalIndex) Pruned() bool { return x.extM != nil }

// scanMatrix returns the matrix the max-over-D scans run on: the
// extreme submatrix when pruning is on, the full matrix otherwise.
func (x *EvalIndex) scanMatrix() *mat.PointMatrix {
	if x.extM != nil {
		return x.extM
	}
	return x.m
}

// scanIndex maps a scan-row index back to its dataset index.
func (x *EvalIndex) scanIndex(i int) int {
	if x.ext != nil {
		return x.ext[i]
	}
	return i
}

// buildHull constructs the dual hull Q(S) of the selection, inserting
// every selected point under the context.
func (x *EvalIndex) buildHull(ctx context.Context, sel []int) (*dualHull, error) {
	selPts := make([]geom.Vector, len(sel))
	for i, s := range sel {
		selPts[i] = x.pts[s]
	}
	hull, err := newDualHull(maxPerDim(selPts))
	if err != nil {
		return nil, err
	}
	for _, p := range selPts {
		if _, err := hull.insert(ctx, p); err != nil {
			return nil, err
		}
	}
	return hull, nil
}

// supportScan fills (from the scratch pool — caller must
// putFloatScratch) the support value of every scan row against the
// hull: parallel.For chunks hand row ranges to the batched
// dd.SupportsInto kernel, with a cancellation check per scanBatch
// sub-range. The body returns the bare ctx error; callers wrap it with
// their site-specific message.
func (x *EvalIndex) supportScan(ctx context.Context, hull *dualHull, workers int) ([]float64, error) {
	qm := x.scanMatrix()
	vals := floatScratch(qm.Rows())
	err := parallel.For(ctx, qm.Rows(), workers, grainSupport, func(start, end int) error {
		for bs := start; bs < end; bs += scanBatch {
			if err := ctx.Err(); err != nil {
				return err
			}
			be := bs + scanBatch
			if be > end {
				be = end
			}
			hull.poly.SupportsInto(qm, bs, be, vals[bs:be], nil)
		}
		return nil
	})
	if err != nil {
		putFloatScratch(vals)
		return nil, err
	}
	return vals, nil
}

// MRRGeometricParCtx is the exact maximum regret ratio of sel
// (Lemma 1), scanned over the extreme set when pruning is on — the
// result is bit-identical either way, because the maximum support over
// D is attained at a skyline point with equal bits.
func (x *EvalIndex) MRRGeometricParCtx(ctx context.Context, sel []int, workers int) (float64, error) {
	if err := checkSelection(x.pts, sel); err != nil {
		return 0, err
	}
	hull, err := x.buildHull(ctx, sel)
	if err != nil {
		return 0, err
	}
	vals, err := x.supportScan(ctx, hull, workers)
	if err != nil {
		return 0, fmt.Errorf("core: regret evaluation canceled: %w", err)
	}
	defer putFloatScratch(vals)
	// Sequential fold in row order: NaN poisons (lowest index first,
	// reported as its dataset index), otherwise first-max — the same
	// semantics parallel.ArgMax guaranteed on the pre-kernel path.
	idx, maxSupport := -1, 0.0
	for i, s := range vals {
		if math.IsNaN(s) {
			return 0, fmt.Errorf("%w: point %d has NaN support in regret evaluation",
				ErrDegenerate, x.scanIndex(i))
		}
		if idx < 0 || s > maxSupport {
			idx, maxSupport = i, s
		}
	}
	if idx < 0 || maxSupport <= 1 {
		return 0, nil
	}
	mrr := 1 - 1/maxSupport
	if assert.Enabled {
		assert.UnitRange("MRRGeometric", mrr, geom.Eps)
	}
	return mrr, nil
}

// regretOf is rr(S, f) for weight vector w: both maxima run as flat
// kernels, the dataset side over the extreme set when pruning is on
// (bit-identical for the validated non-negative weights — see the
// exactness argument on EvalIndex).
func (x *EvalIndex) regretOf(sel []int, w geom.Vector) float64 {
	sm := x.scanMatrix()
	_, bestAll := sm.MaxDotRows(w, 0, sm.Rows())
	bestSel := math.Inf(-1)
	for _, i := range sel {
		if u := x.m.DotRow(w, i); u > bestSel {
			bestSel = u
		}
	}
	if bestAll <= 0 {
		return 0
	}
	r := 1 - bestSel/bestAll
	if r < 0 {
		return 0
	}
	return r
}

// RegretOf is the validated public form of regretOf (Definition 1).
func (x *EvalIndex) RegretOf(sel []int, w geom.Vector) (float64, error) {
	if err := checkSelection(x.pts, sel); err != nil {
		return 0, err
	}
	if err := geom.CheckSameDim(x.pts[0], w); err != nil {
		return 0, fmt.Errorf("core: utility weights: %w", err)
	}
	if !w.NonNegative(0) {
		return 0, fmt.Errorf("core: utility weights must be non-negative, got %v", w)
	}
	return x.regretOf(sel, w), nil
}

// sampledRegrets draws `samples` utilities from the seeded generator
// and fills their regret ratios, fanning the per-utility evaluation
// out over the workers. The returned slice comes from the scratch
// pool; the caller must putFloatScratch it.
func (x *EvalIndex) sampledRegrets(ctx context.Context, sel []int, samples int, seed int64, workers int) ([]float64, error) {
	if err := checkSelection(x.pts, sel); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: samples must be positive, got %d", samples)
	}
	d := len(x.pts[0])
	rng := rand.New(rand.NewSource(seed))
	// One flat backing for all sample vectors, returned to the pool on
	// exit: the per-sample utilities are read-only once drawn and never
	// outlive this call.
	wbuf := floatScratch(samples * d)
	defer putFloatScratch(wbuf)
	ws := make([]geom.Vector, samples)
	for s := range ws {
		w := geom.Vector(wbuf[s*d : (s+1)*d])
		randomUtilityInto(rng, w)
		ws[s] = w
	}
	regrets := floatScratch(samples)
	err := parallel.For(ctx, samples, workers, 1, func(start, end int) error {
		for s := start; s < end; s++ {
			if (s-start)%sampleCtxBatch == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: sampled regret evaluation canceled: %w", err)
				}
			}
			regrets[s] = x.regretOf(sel, ws[s])
		}
		return nil
	})
	if err != nil {
		putFloatScratch(regrets)
		return nil, err
	}
	return regrets, nil
}

// MRRSampledParCtx estimates the maximum regret ratio over `samples`
// seeded random utilities (see the package-level MRRSampled).
func (x *EvalIndex) MRRSampledParCtx(ctx context.Context, sel []int, samples int, seed int64, workers int) (float64, error) {
	regrets, err := x.sampledRegrets(ctx, sel, samples, seed, workers)
	if err != nil {
		return 0, err
	}
	defer putFloatScratch(regrets)
	worst := 0.0
	for _, r := range regrets {
		if r > worst {
			worst = r
		}
	}
	return worst, nil
}

// AverageRegretSampledParCtx estimates the average regret ratio over
// `samples` seeded random utilities; the sum folds sequentially in
// sample order so the estimate is byte-identical at every worker
// count.
func (x *EvalIndex) AverageRegretSampledParCtx(ctx context.Context, sel []int, samples int, seed int64, workers int) (float64, error) {
	regrets, err := x.sampledRegrets(ctx, sel, samples, seed, workers)
	if err != nil {
		return 0, err
	}
	defer putFloatScratch(regrets)
	var sum float64
	for _, r := range regrets {
		sum += r
	}
	// sampledRegrets rejects samples < 1, so the divisor is ≥ 1.
	//kregret:allow naninf: samples validated positive above
	return sum / float64(samples), nil
}

// WorstUtilityParCtx returns a maximum regret ratio utility of the
// selection (Definition 2) and the witness point attaining it,
// scanning supports in parallel (see the package-level WorstUtility
// for the contract). The fold is first-max in row order with the same
// 1+eps threshold and NaN-skipping comparison the sequential scan
// used, so the witness is identical at every worker count. Under
// pruning the witness maps back through the extreme set; it can differ
// from the full-scan witness only when a dominated point ties its
// dominator's support to the last bit — a measure-zero event on
// continuous data, and the regret value itself is always identical.
func (x *EvalIndex) WorstUtilityParCtx(ctx context.Context, sel []int, workers int) (geom.Vector, int, error) {
	if err := checkSelection(x.pts, sel); err != nil {
		return nil, -1, err
	}
	hull, err := x.buildHull(ctx, sel)
	if err != nil {
		return nil, -1, err
	}
	vals, err := x.supportScan(ctx, hull, workers)
	if err != nil {
		return nil, -1, fmt.Errorf("core: worst-utility scan canceled: %w", err)
	}
	maxSupport, witness := 1.0+geom.Eps, -1
	for i, s := range vals {
		if s > maxSupport {
			maxSupport, witness = s, i
		}
	}
	putFloatScratch(vals)
	if witness < 0 {
		return nil, -1, nil
	}
	qi := x.scanIndex(witness)
	// Recover the argmax dual vertex for the witness (one extra
	// support evaluation; bit-identical to the scan's value).
	_, v := hull.supportOf(x.pts[qi])
	if v == nil {
		return nil, -1, fmt.Errorf("%w: witness %d lost its dual vertex", ErrDegenerate, qi)
	}
	w, err := v.Point.Normalize()
	if err != nil {
		return nil, -1, fmt.Errorf("core: degenerate worst-case utility: %w", err)
	}
	return w, qi, nil
}
