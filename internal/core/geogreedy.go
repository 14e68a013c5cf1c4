package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/assert"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/parallel"
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

// GeoGreedyParCtx is GeoGreedy with cooperative cancellation and
// intra-query parallelism. The context is checked once per greedy
// iteration, once per candidate re-scan batch, and inside every
// dual-hull insertion, so a deadline or cancel stops the algorithm
// within one batch even on pathological hulls; the returned error
// wraps ctx.Err() when canceled. The candidate support scans,
// re-location passes and argmax reductions fan out over up to
// `workers` goroutines (0 = GOMAXPROCS, 1 = the exact
// sequential path). The answer is byte-identical to the sequential one
// for every worker count — reductions break ties by lowest index and
// NaN supports surface as ErrDegenerate with the lowest poisoned
// candidate, exactly as the sequential scan reports them.
func GeoGreedyParCtx(ctx context.Context, pts []geom.Vector, k, workers int) (*Result, error) {
	return greedyHullTrace(ctx, pts, k, workers, 1.0, nil, nil)
}

// scanBatch is the number of candidate-support computations between
// cancellation checks in the initial assignment pass.
const scanBatch = 4096

// Per-site parallel grains: the minimum chunk sizes handed to
// parallel.For/ArgMax, sized so chunk scheduling stays well under the
// per-item work. Vars, not consts: fault-injection builds shrink them
// (geogreedy_fault.go) so the worker fan-out path — and the fault
// sites inside it — is reachable from test-sized datasets.
var (
	// grainSupport covers the one-time assignment scan's dual-hull
	// support evaluations. The kernel is heavy per item (a dot
	// product per hull vertex per candidate), so chunks amortize
	// scheduling quickly; 16384 lets the paper-scale n=100k scan fan
	// out (the previous 65536 kept it inline — one of the two causes
	// of the sub-1.0x parallel speedups in BENCH_51b6548) while
	// test-sized sweeps still run inline below two grains.
	grainSupport = 16384
	// grainRelocate covers the per-iteration relocation pass. Most
	// iterations touch only the few candidates whose best face was
	// capped, so the per-item work is a cheap guard plus an
	// occasional small MaxDotCols; chunks below this size cost more
	// in scheduling than they save, and sweeps under two grains run
	// inline — which is what keeps the k-iteration loop from paying
	// goroutine latency k times on narrow machines.
	grainRelocate = 16384
	// grainReduce covers pure loads/compares over cached candidate
	// state (the argmax reductions); same inline reasoning as
	// grainRelocate.
	grainReduce = 16384
)

// candState caches, for one unselected candidate, the dual vertex
// currently maximizing v·q (the face its critical ray crosses) and
// the value there.
type candState struct {
	bestVal float64
	bestID  int
	taken   bool
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
// The cached supports price only the full boundary seed batch, so a
// regret they cannot give — a seed prefix reported to onSelect, or
// the whole selection when k truncates the seeds — is evaluated
// exactly (Lemma 1) on one full-scan EvalIndex, built on first use.
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

	// Initial face assignment for every remaining candidate. The hull
	// is read-only during the scan and each iteration writes only its
	// own states entry, so the chunks are independent. Each chunk hands
	// scanBatch-sized row ranges to the batched support kernel, then
	// distributes the values into the per-candidate state (the taken
	// few are computed and discarded — cheaper than breaking the batch).
	err = parallel.For(ctx, len(pts), workers, grainSupport, func(start, end int) error {
		vals := floatScratch(scanBatch)
		ids := intScratch(scanBatch)
		defer putFloatScratch(vals)
		defer putIntScratch(ids)
		for bs := start; bs < end; bs += scanBatch {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: GeoGreedy canceled during candidate assignment: %w", err)
			}
			be := bs + scanBatch
			if be > end {
				be = end
			}
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
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if onSelect != nil {
		mrr, err := currentMRR(ctx, states, workers)
		if err != nil {
			return nil, err
		}
		for j, i := range selected {
			m := mrr
			if j+1 < nBoundary {
				if m, err = exactMRR(selected[:j+1]); err != nil {
					return nil, err
				}
			}
			onSelect(i, m)
		}
	}

	// Re-location scratch, reused across insertions: membership set of
	// the dual vertices each insertion destroyed, the cap vertex list,
	// and its transposed matrix.
	removed := make(map[int]bool)
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
		// Candidate with the smallest critical ratio = largest
		// support value. A NaN support means the hull arithmetic broke
		// down (it would silently lose the candidate: every comparison
		// against NaN is false) — surface it as a degeneracy instead.
		best, _, err := bestCandidate(ctx, states, workers, len(selected), stop)
		if err != nil {
			return nil, err
		}
		if best < 0 {
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

		// Incremental re-location: only candidates whose cached face
		// was removed rescan, and only over the faces of the new cap
		// (created vertices plus kept vertices on the new plane). The
		// removed set and the new faces are read-only during the pass;
		// each iteration writes only its own states entry.
		if len(res.RemovedIDs) > 0 {
			clear(removed)
			for _, id := range res.RemovedIDs {
				removed[id] = true
			}
			// The cap — created vertices then kept on-plane vertices, in
			// the same order the pre-kernel loops scanned them — as a
			// transposed matrix, so each re-located candidate is one
			// batched max-dot. The column-order first-max fold matches
			// the old Added-then-OnPlane sequential scan bit for bit.
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
			err := parallel.For(ctx, len(states), workers, grainRelocate, func(start, end int) error {
				acc := floatScratch(len(capPts))
				defer putFloatScratch(acc)
				for i := start; i < end; i++ {
					st := &states[i]
					if st.taken || !removed[st.bestID] {
						continue
					}
					c, newVal := capT.MaxDotCols(qm.Row(i), acc)
					newID := -1
					if c >= 0 {
						newID = capIDs[c]
					}
					if fault.Enabled {
						newVal = fault.NaN(fault.SiteGeoGreedySupport, newVal)
					}
					st.bestVal, st.bestID = newVal, newID
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if onSelect != nil {
			mrr, err := currentMRR(ctx, states, workers)
			if err != nil {
				return nil, err
			}
			onSelect(best, mrr)
		}
	}

	mrr, err := currentMRR(ctx, states, workers)
	if err != nil {
		return nil, err
	}
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

// bestCandidate finds the unselected candidate with the largest
// cached support, provided it exceeds stop + eps (stop = 1 is
// GeoGreedy's "critical ratio below 1, i.e. still outside the hull";
// stop = 1/(1−ε) is EpsKernel's slack); otherwise (-1, 0, nil). Ties
// break to the lowest index and a NaN support anywhere is
// ErrDegenerate — both independent of the worker count.
func bestCandidate(ctx context.Context, states []candState, workers, nSel int, stop float64) (int, float64, error) {
	best, bestVal, err := parallel.ArgMax(ctx, len(states), workers, grainReduce, func(i int) (float64, bool) {
		return states[i].bestVal, !states[i].taken
	})
	if err != nil {
		var nanErr *parallel.NaNError
		if errors.As(err, &nanErr) {
			return -1, 0, fmt.Errorf("%w: candidate %d has NaN critical ratio after %d selections",
				ErrDegenerate, nanErr.Index, nSel)
		}
		return -1, 0, fmt.Errorf("core: GeoGreedy canceled after %d selections: %w", nSel, err)
	}
	if best < 0 || bestVal <= stop+geom.Eps {
		return -1, 0, nil
	}
	return best, bestVal, nil
}

// currentMRR computes 1 − min cr over unselected candidates from the
// cached support values (Lemma 1), clamped at zero. A NaN cached
// support is ErrDegenerate: the reduction would otherwise silently
// lose it (every ordered comparison against NaN is false) and report
// a regret that ignores the poisoned candidate — parallel and
// sequential paths surface the identical failure instead.
func currentMRR(ctx context.Context, states []candState, workers int) (float64, error) {
	_, maxVal, err := parallel.ArgMax(ctx, len(states), workers, grainReduce, func(i int) (float64, bool) {
		return states[i].bestVal, !states[i].taken
	})
	if err != nil {
		var nanErr *parallel.NaNError
		if errors.As(err, &nanErr) {
			return 0, fmt.Errorf("%w: candidate %d has NaN critical ratio in regret evaluation",
				ErrDegenerate, nanErr.Index)
		}
		return 0, fmt.Errorf("core: GeoGreedy canceled during regret evaluation: %w", err)
	}
	if maxVal <= 1 {
		return 0, nil
	}
	return 1 - 1/maxVal, nil
}
