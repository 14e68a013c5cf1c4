package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/assert"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mat"
)

// GeoGreedy runs Algorithm 1 of the paper on the candidate points:
// seed with the d dimension boundary points, then repeatedly insert
// the candidate with the smallest critical ratio for the current
// selection, stopping early once every remaining candidate has
// critical ratio ≥ 1 (regret zero). Critical ratios come from the
// incrementally maintained dual hull; per Section IV-A only the
// candidates whose cached face was destroyed by an insertion are
// re-located, and only against the faces the insertion created.
//
// Candidates should normally be the happy points (Lemma 2); running
// on the skyline or the raw dataset is allowed and reproduces the
// paper's D_sky experiments.
func GeoGreedy(pts []geom.Vector, k int) (*Result, error) {
	return GeoGreedyParCtx(context.Background(), pts, k, 1)
}

// GeoGreedyParCtx is GeoGreedy with cooperative cancellation. The
// context is checked once per greedy iteration, once per candidate
// scan batch, and inside every dual-hull insertion, so a deadline or
// cancel stops the algorithm within one batch even on pathological
// hulls; the returned error wraps ctx.Err() when canceled. The loop
// is sequential: workers (0 = GOMAXPROCS, 1 = the exact sequential
// path) only sizes the exact evaluator that prices a selection the
// cached supports cannot, so the answer is byte-identical for every
// worker count. A NaN support surfaces as ErrDegenerate naming the
// lowest poisoned candidate.
func GeoGreedyParCtx(ctx context.Context, pts []geom.Vector, k, workers int) (*Result, error) {
	return greedyHullTrace(ctx, pts, k, workers, 1.0, nil, nil)
}

// unpriced is the regret greedyHullTrace reports to onSelect for a
// seed prefix shorter than the boundary seed batch: no regret ratio
// is negative, so it cannot be mistaken for one.
const unpriced = -1.0

// scanBatch is the number of candidate-support computations between
// cancellation checks in the initial assignment pass.
const scanBatch = 4096

// retireAt is the support at or below which a candidate retires for
// good: it leaves the active list and is never re-located again.
// Q(S) only shrinks as S grows, so a candidate's support never rises,
// and its cached value is that support up to rounding far below
// geom.Eps. A retired candidate can therefore never exceed
// stop + geom.Eps ≥ 1 to be picked, and currentMRR reads any support
// ≤ 1 as zero regret: retiring it changes no answer, and the geom.Eps
// margin keeps rounding from turning a retired support into a
// regret.
const retireAt = 1 - geom.Eps

// candState caches, for one unselected candidate, the dual vertex
// currently maximizing v·q (the face its critical ray crosses) and
// the value there. next links the candidates cached on one vertex
// into that vertex's list (-1 ends it); with retired it fills what
// would otherwise be padding, so the struct stays 24 bytes.
type candState struct {
	bestVal float64
	bestID  int
	taken   bool
	retired bool
	next    int32
}

// greedyHullTrace is the shared greedy dual-hull loop behind GeoGreedy
// (stop = 1: select while some candidate is strictly outside the hull)
// and EpsKernel (stop = 1/(1−ε): select while some candidate's support
// exceeds the ε-kernel slack). extraSeeds, when non-nil, are inserted
// after the dimension boundary points and before the assignment scan,
// so the scan prices every candidate against the fully seeded hull.
// onSelect, when non-nil, receives every selected index with the
// maximum regret ratio of the selection so far, on the calling
// goroutine and in selection order — StoredList materializes its
// insertion order and prefix regrets through it.
//
// The cached supports price only the full boundary seed batch. A seed
// prefix shorter than it is reported to onSelect as unpriced, for the
// caller to evaluate exactly only if it needs that regret; the whole
// selection, when k truncates the seeds, is evaluated exactly
// (Lemma 1) on one full-scan EvalIndex, built on first use.
func greedyHullTrace(ctx context.Context, pts []geom.Vector, k, workers int, stop float64, extraSeeds []int, onSelect func(int, float64)) (*Result, error) {
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if k > len(pts) {
		k = len(pts)
	}

	hull, err := newDualHull(maxPerDim(pts))
	if err != nil {
		return nil, err
	}

	// Flat copy of the candidates: the support scans and re-location
	// passes below run as contiguous kernels over qm instead of
	// per-point Dot calls. The backing comes from the scratch pool —
	// at paper scale it is the single largest per-query allocation —
	// and is released on return; qm must not outlive this function.
	qbuf := floatScratch(len(pts) * len(pts[0]))
	defer putFloatScratch(qbuf)
	qm := mat.FromVectorsInto(pts, qbuf)

	selected := make([]int, 0, k)
	states := candStateScratch(len(pts))
	defer putCandStateScratch(states)

	// exactMRR is the lazily built evaluator of the doc comment.
	var x *EvalIndex
	exactMRR := func(sel []int) (float64, error) {
		if x == nil {
			var err error
			if x, err = NewEvalIndex(pts); err != nil {
				return 0, err
			}
		}
		return x.MRRGeometricParCtx(ctx, sel, workers)
	}

	// Seed: the per-dimension boundary points (at most d, fewer on
	// duplicates; truncated if k < d, in which case the regret is
	// unbounded per the paper's Section VII discussion but the
	// algorithm still returns its best effort).
	seeds := BoundaryPoints(pts)
	nBoundary := len(seeds)
	truncatedSeeds := nBoundary > k
	if truncatedSeeds {
		seeds = seeds[:k]
	}
	for _, i := range seeds {
		if _, err := hull.insert(ctx, pts[i]); err != nil {
			return nil, err
		}
		states[i].taken = true
		selected = append(selected, i)
	}
	// Extra seeds (EpsKernel's direction-net supports) join the hull
	// before the assignment scan so every candidate is priced against
	// the fully seeded selection; duplicates of the boundary seeds are
	// skipped via the taken flags.
	for _, i := range extraSeeds {
		if i < 0 || i >= len(pts) {
			return nil, fmt.Errorf("%w: %d (n=%d)", ErrBadSubset, i, len(pts))
		}
		if states[i].taken || len(selected) >= k {
			continue
		}
		if _, err := hull.insert(ctx, pts[i]); err != nil {
			return nil, err
		}
		states[i].taken = true
		selected = append(selected, i)
	}

	// The candidates still in play, in ascending index order (maxSupport
	// drops the taken and retired ones as it folds), and per dual vertex
	// the list of those whose cached support it attains: heads[id] is
	// the first (-1: none) and candState.next links the rest. dd numbers
	// vertices from 0 and never reuses an ID, so heads is a slice that
	// only grows. Both come from the scratch pool.
	active := intScratch(len(pts))[:0]
	heads := intScratch(0)
	defer func() {
		putIntScratch(heads)
		putIntScratch(active)
	}()
	// link files candidate i under the vertex of its freshly computed
	// support, or retires it, and reports whether it stays in play. A
	// candidate whose every dot was NaN has no vertex and is never
	// re-located; its NaN is maxSupport's to report.
	link := func(i int) bool {
		st := &states[i]
		if st.bestVal <= retireAt {
			st.retired = true
			return false
		}
		if id := st.bestID; id >= 0 {
			for id >= len(heads) {
				heads = append(heads, -1)
			}
			st.next, heads[id] = int32(heads[id]), i
		}
		return true
	}

	// Initial face assignment for every remaining candidate: scanBatch
	// row ranges go to the batched support kernel, then the values are
	// distributed into the per-candidate state (the taken few are
	// computed and discarded — cheaper than breaking the batch).
	vals := floatScratch(scanBatch)
	ids := intScratch(scanBatch)
	defer putFloatScratch(vals)
	defer putIntScratch(ids)
	for bs := 0; bs < len(pts); bs += scanBatch {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: GeoGreedy canceled during candidate assignment: %w", err)
		}
		be := min(bs+scanBatch, len(pts))
		hull.poly.SupportsInto(qm, bs, be, vals[:be-bs], ids[:be-bs])
		for i := bs; i < be; i++ {
			if states[i].taken {
				continue
			}
			val := vals[i-bs]
			if fault.Enabled {
				val = fault.NaN(fault.SiteGeoGreedySupport, val)
			}
			states[i].bestVal, states[i].bestID = val, ids[i-bs]
			if link(i) {
				active = append(active, i)
			}
		}
	}
	// One fold per hull state: best is the next candidate to take and
	// bestVal, the largest support, prices the selection's regret.
	best, bestVal, err := maxSupport(states, &active)
	if err != nil {
		return nil, fmt.Errorf("%w after %d selections", err, len(selected))
	}
	if onSelect != nil {
		mrr := regretOf(bestVal)
		for j, i := range selected {
			m := mrr
			if j+1 < nBoundary {
				m = unpriced
			}
			onSelect(i, m)
		}
	}

	// The cap of each insertion — its vertex list and transposed
	// matrix — reused across insertions.
	var capPts []geom.Vector
	var capIDs []int
	capT := new(mat.Transposed)

	exhausted := -1
	for len(selected) < k {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: GeoGreedy canceled after %d selections: %w", len(selected), err)
		}
		if fault.Enabled && fault.Active(fault.SiteGeoGreedyPanic) {
			panic("fault: injected geometry panic in GeoGreedy")
		}
		// Candidate with the smallest critical ratio = largest support
		// value, taken only while it exceeds stop (stop = 1: still
		// outside the hull; stop = 1/(1−ε): EpsKernel's slack).
		if best < 0 || bestVal <= stop+geom.Eps {
			// Every remaining candidate is inside the hull:
			// cr ≥ 1 ⟹ mrr = 0 (Algorithm 1, line 8).
			exhausted = len(selected)
			break
		}
		res, err := hull.insert(ctx, pts[best])
		if err != nil {
			return nil, err
		}
		states[best].taken = true
		selected = append(selected, best)

		// Incremental re-location: only the candidates cached on a
		// destroyed vertex move — the lists of RemovedIDs hold exactly
		// those — and each rescans only the faces of the new cap
		// (created vertices plus kept vertices on the new plane), then
		// is filed under its new vertex or retired. The cap's column
		// order, created then on-plane, with the first-max fold of
		// MaxDotCols, fixes which vertex wins a tie.
		if len(res.RemovedIDs) > 0 {
			capPts, capIDs = capPts[:0], capIDs[:0]
			for _, v := range res.Added {
				capPts = append(capPts, v.Point)
				capIDs = append(capIDs, v.ID)
			}
			for _, v := range res.OnPlane {
				capPts = append(capPts, v.Point)
				capIDs = append(capIDs, v.ID)
			}
			capT.SetCols(qm.Dim(), capPts)
			for _, id := range res.RemovedIDs {
				if id >= len(heads) {
					continue
				}
				for i := heads[id]; i >= 0; {
					st := &states[i]
					next := int(st.next)
					if !st.taken {
						c, val := capT.MaxDotCols(qm.Row(i))
						st.bestID = -1
						if c >= 0 {
							st.bestID = capIDs[c]
						}
						if fault.Enabled {
							val = fault.NaN(fault.SiteGeoGreedySupport, val)
						}
						st.bestVal = val
						link(i)
					}
					i = next
				}
			}
		}
		if best, bestVal, err = maxSupport(states, &active); err != nil {
			return nil, fmt.Errorf("%w after %d selections", err, len(selected))
		}
		if onSelect != nil {
			onSelect(selected[len(selected)-1], regretOf(bestVal))
		}
	}

	mrr := regretOf(bestVal)
	if truncatedSeeds {
		// With k below the number of dimension boundary points, the
		// dual hull's box bounds (implied only by the full seed set)
		// clip Q(S), so cached supports underestimate the regret —
		// the paper's unbounded k < d regime (Section VII).
		// Re-evaluate exactly from the selection alone.
		if mrr, err = exactMRR(selected); err != nil {
			return nil, err
		}
	}
	if math.IsNaN(mrr) || math.IsInf(mrr, 0) {
		return nil, fmt.Errorf("%w: GeoGreedy regret ratio is %g", ErrDegenerate, mrr)
	}
	if assert.Enabled {
		// Lemma 1: the maximum regret ratio of any non-empty
		// selection lies in [0, 1].
		assert.UnitRange("GeoGreedy mrr", mrr, geom.LooseEps)
		for i := range states {
			if !states[i].taken {
				assert.That(!math.IsNaN(states[i].bestVal),
					"cached support of candidate %d is NaN", i)
			}
		}
	}
	return &Result{
		Indices:     selected,
		MRR:         mrr,
		ExhaustedAt: exhausted,
	}, nil
}

// maxSupport is the one fold over the cached supports: the first
// candidate of the ascending active list attaining the largest
// support and that support, or (-1, 0) when none is in play. It drops
// the taken and retired candidates from active as it goes (on error
// active is left unspecified). One fold per hull state gives the
// greedy step its next candidate (the smallest critical ratio) and
// regretOf the regret. A NaN support is ErrDegenerate naming the
// lowest poisoned candidate: skipping it would silently lose the
// candidate, because every ordered comparison against NaN is false.
func maxSupport(states []candState, active *[]int) (int, float64, error) {
	best, bestVal := -1, 0.0
	kept := (*active)[:0]
	for _, i := range *active {
		st := &states[i]
		if st.taken || st.retired {
			continue
		}
		if math.IsNaN(st.bestVal) {
			return -1, 0, fmt.Errorf("%w: candidate %d has NaN critical ratio", ErrDegenerate, i)
		}
		kept = append(kept, i)
		if best < 0 || st.bestVal > bestVal {
			best, bestVal = i, st.bestVal
		}
	}
	*active = kept
	return best, bestVal, nil
}

// regretOf is the maximum regret ratio 1 − min cr over the unselected
// candidates (Lemma 1), clamped at zero, from the largest of their
// cached supports (0 when none is in play).
func regretOf(maxVal float64) float64 {
	if maxVal <= 1 {
		return 0
	}
	return 1 - 1/maxVal
}
