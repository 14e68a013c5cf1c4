package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/assert"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// ErrEmptySelection is returned when evaluating an empty selection.
var ErrEmptySelection = errors.New("core: empty selection")

// checkSelection validates a selection index set against a dataset of
// n points.
func checkSelection(n int, sel []int) error {
	if len(sel) == 0 {
		return ErrEmptySelection
	}
	for _, i := range sel {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %d (n=%d)", ErrBadSubset, i, n)
		}
	}
	return nil
}

// EvalIndex is the one regret evaluator: the exact (Lemma 1), sampled
// and per-utility regret of a selection are computed by its methods,
// for callers and for every solver that cannot read its regret off its
// own search state. It is the reusable evaluation substrate for one
// dataset: the points' rows, read in place as a row-major
// mat.PointMatrix (so every scan is a contiguous kernel sweep instead
// of a pointer-chase over []geom.Vector), plus an optional extreme
// set — the skyline indices — that the "max over D" side of every
// evaluator scans instead of the full dataset.
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
// The zero extreme set (SetExtreme never called) means full scans: the
// solvers' one-off evaluations of their own candidates and the
// reference side of the differential tests.
type EvalIndex struct {
	rows geom.Rows
	m    *mat.PointMatrix // the rows, in place
	ext  []int            // skyline indices, ascending; nil = no pruning
	extM *mat.PointMatrix // gathered rows of ext
}

// NewEvalIndex validates the dataset and flattens it into rows: the
// evaluator of NewEvalIndexRows over a copy of pts.
func NewEvalIndex(pts []geom.Vector) (*EvalIndex, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	return NewEvalIndexRows(geom.Flatten(pts))
}

// NewEvalIndexRows returns the evaluator over the rows r, which it
// reads in place and retains (read-only) without copying: over a
// dataset epoch it adds nothing that grows with n but the extreme
// set's gathered rows. r must be validated (finite, strictly
// positive), as every dataset epoch's rows are.
func NewEvalIndexRows(r geom.Rows) (*EvalIndex, error) {
	if r.Len() == 0 {
		return nil, ErrNoPoints
	}
	return &EvalIndex{rows: r, m: mat.FromRows(r)}, nil
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

// hull constructs the dual hull Q(S) of the selection sel, inserting
// every selected point under the context. The selection must already
// be checked against the rows.
func (x *EvalIndex) hull(ctx context.Context, sel []int) (*dualHull, error) {
	selPts := make([]geom.Vector, len(sel))
	for i, s := range sel {
		selPts[i] = x.rows.Row(s)
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

// grainSupport is the minimum chunk of the support scan below: the
// kernel is heavy per item (a dot product per hull vertex per row),
// so chunks amortize scheduling quickly, and 16384 lets a paper-scale
// n=100k full scan fan out while test-sized scans run inline below two
// grains. A var, not a const: fault-injection builds shrink it
// (geogreedy_fault.go).
var grainSupport = 16384

// supportScan returns the support value of every scan row against
// the hull: parallel.For chunks hand row ranges to the batched
// dd.SupportsInto kernel, with a cancellation check per scanBatch
// sub-range. The body returns the bare ctx error; callers wrap it with
// their site-specific message.
func (x *EvalIndex) supportScan(ctx context.Context, hull *dualHull, workers int) ([]float64, error) {
	qm := x.scanMatrix()
	vals := make([]float64, qm.Rows())
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
		return nil, err
	}
	return vals, nil
}

// MRRGeometric is MRRGeometricParCtx without a context, on the exact
// sequential path.
func (x *EvalIndex) MRRGeometric(sel []int) (float64, error) {
	return x.MRRGeometricParCtx(context.Background(), sel, 1)
}

// MRRGeometricParCtx is the exact maximum regret ratio of sel over the
// dataset by the paper's Lemma 1: mrr(S) = 1 − min_q cr(q, S), with
// critical ratios read off the dual hull of S. It is scanned over the
// extreme set when pruning is on — the result is bit-identical either
// way, because the maximum support over D is attained at a skyline
// point with equal bits.
//
// The context is checked inside every dual-hull insertion and once per
// support-scan batch; the returned error wraps ctx.Err() when
// canceled. The per-point support scan fans out over up to `workers`
// goroutines (0 = GOMAXPROCS, 1 = the exact sequential path); the hull
// is read-only during the scan and the max fold runs in row order, so
// the result is identical for every worker count. A NaN support
// poisons the fold and surfaces as ErrDegenerate instead of being
// silently dropped.
func (x *EvalIndex) MRRGeometricParCtx(ctx context.Context, sel []int, workers int) (float64, error) {
	mrr, _, err := x.mrrArgMax(ctx, sel, workers)
	return mrr, err
}

// mrrArgMax is MRRGeometricParCtx that also returns the dataset index
// of the point whose support prices the regret: the first maximum of
// the fold, or -1 when the regret is zero.
func (x *EvalIndex) mrrArgMax(ctx context.Context, sel []int, workers int) (float64, int, error) {
	if err := checkSelection(x.rows.Len(), sel); err != nil {
		return 0, -1, err
	}
	hull, err := x.hull(ctx, sel)
	if err != nil {
		return 0, -1, err
	}
	vals, err := x.supportScan(ctx, hull, workers)
	if err != nil {
		return 0, -1, fmt.Errorf("core: regret evaluation canceled: %w", err)
	}
	// Sequential fold in row order: NaN poisons (lowest index first,
	// reported as its dataset index), otherwise first-max — the same
	// contract as GeoGreedy's maxSupport.
	idx, maxSupport := -1, 0.0
	for i, s := range vals {
		if math.IsNaN(s) {
			return 0, -1, fmt.Errorf("%w: point %d has NaN support in regret evaluation",
				ErrDegenerate, x.scanIndex(i))
		}
		if idx < 0 || s > maxSupport {
			idx, maxSupport = i, s
		}
	}
	if idx < 0 || maxSupport <= 1 {
		return 0, -1, nil
	}
	mrr := 1 - 1/maxSupport
	if assert.Enabled {
		assert.UnitRange("MRRGeometric", mrr, geom.Eps)
	}
	return mrr, x.scanIndex(idx), nil
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

// RegretOf returns rr(S, f) for the linear utility with weight vector
// w (Definition 1): 1 − max_{p∈S} w·p / max_{q∈D} w·q. It is the
// validated form of regretOf.
func (x *EvalIndex) RegretOf(sel []int, w geom.Vector) (float64, error) {
	if err := checkSelection(x.rows.Len(), sel); err != nil {
		return 0, err
	}
	if err := geom.CheckSameDim(x.rows.Row(0), w); err != nil {
		return 0, fmt.Errorf("core: utility weights: %w", err)
	}
	if !w.NonNegative(0) {
		return 0, fmt.Errorf("core: utility weights must be non-negative, got %v", w)
	}
	return x.regretOf(sel, w), nil
}

// sampleCtxBatch is the number of per-utility regret evaluations
// between cancellation checks; each evaluation already scans the full
// extreme set, so a small batch keeps cancellation prompt.
const sampleCtxBatch = 16

// SampledRegretParCtx estimates the regret of sel over `samples`
// linear utilities with weight vectors drawn from the seeded generator
// uniformly on the non-negative unit sphere. It returns the worst
// sampled regret, which lower-bounds the exact maximum regret ratio
// and converges to it, and the mean, the average regret ratio of the
// paper's first future direction (Section VIII).
//
// The utilities are drawn sequentially, so the sample set is the same
// for every worker count; their regrets are evaluated in parallel into
// per-sample slots and both folds run sequentially in sample order
// (float addition is order-dependent), so both estimates are
// byte-identical at every width.
func (x *EvalIndex) SampledRegretParCtx(ctx context.Context, sel []int, samples int, seed int64, workers int) (worst, mean float64, err error) {
	if err := checkSelection(x.rows.Len(), sel); err != nil {
		return 0, 0, err
	}
	if samples < 1 {
		return 0, 0, fmt.Errorf("core: samples must be positive, got %d", samples)
	}
	d := x.rows.Dim()
	rng := rand.New(rand.NewSource(seed))
	// One flat backing for all sample vectors.
	wbuf := make([]float64, samples*d)
	ws := make([]geom.Vector, samples)
	for s := range ws {
		w := geom.Vector(wbuf[s*d : (s+1)*d])
		randomUtilityInto(rng, w)
		ws[s] = w
	}
	regrets := make([]float64, samples)
	err = parallel.For(ctx, samples, workers, 1, func(start, end int) error {
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
		return 0, 0, err
	}
	var sum float64
	for _, r := range regrets {
		if r > worst {
			worst = r
		}
		sum += r
	}
	//kregret:allow naninf: samples validated positive above
	return worst, sum / float64(samples), nil
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
// storage — SampledRegretParCtx draws thousands per call into one
// flat backing.
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

// WorstUtilityParCtx returns a maximum regret ratio function of the
// selection (Definition 2): the facet normal of Conv(S) whose critical
// point realizes the minimum critical ratio, normalized to unit
// length, together with the index of the witness point that attains
// the regret. When the regret is zero it returns a nil vector and
// witness −1. The support scan fans out as in MRRGeometricParCtx, and
// the fold is first-max in row order with the same
// 1+eps threshold and NaN-skipping comparison the sequential scan
// used, so the witness is identical at every worker count. Under
// pruning the witness maps back through the extreme set; it can differ
// from the full-scan witness only when a dominated point ties its
// dominator's support to the last bit — a measure-zero event on
// continuous data, and the regret value itself is always identical.
func (x *EvalIndex) WorstUtilityParCtx(ctx context.Context, sel []int, workers int) (geom.Vector, int, error) {
	if err := checkSelection(x.rows.Len(), sel); err != nil {
		return nil, -1, err
	}
	hull, err := x.hull(ctx, sel)
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
	if witness < 0 {
		return nil, -1, nil
	}
	qi := x.scanIndex(witness)
	// Recover the argmax dual vertex for the witness (one extra
	// support evaluation; bit-identical to the scan's value).
	_, v := hull.supportOf(x.rows.Row(qi))
	if v == nil {
		return nil, -1, fmt.Errorf("%w: witness %d lost its dual vertex", ErrDegenerate, qi)
	}
	w, err := v.Point.Normalize()
	if err != nil {
		return nil, -1, fmt.Errorf("core: degenerate worst-case utility: %w", err)
	}
	return w, qi, nil
}
