// Package parallel is the intra-query fan-out substrate of the
// geometry core: a chunked parallel-for with deterministic reductions,
// built only on the standard library.
//
// The paper's hot loops — candidate support scans, happy-point
// subjugation tests, sampled regret evaluation, the per-candidate LPs
// of the Greedy baseline — are embarrassingly parallel across
// candidates: every iteration reads shared immutable state (the dual
// hull, the point slice) and writes at most its own index. This
// package exploits exactly that shape while keeping three contracts
// the rest of the repository depends on:
//
//   - Determinism. Parallel results are byte-identical to the
//     sequential ones. For writes only disjoint indices; ArgMax
//     reduces with value-then-lowest-index ordering, which is
//     associative and commutative, so chunk scheduling cannot change
//     the winner. Differential tests in internal/core assert equality
//     of full query answers at parallelism 1 vs N.
//
//   - Failure transparency. A panic on a worker goroutine is captured
//     and re-raised on the caller's goroutine, so the public panic
//     boundary in package kregret converts it into a *NumericalError
//     exactly as it does for sequential panics. Body errors are
//     combined with errors.Join; cancellation is checked between
//     chunks so a dead context stops the fan-out within one chunk.
//
//   - NaN poisoning. ArgMax refuses to reduce across a NaN: the
//     sequential scans treat NaN supports as degeneracy (every ordered
//     comparison against NaN is false, which would silently lose the
//     candidate), and the parallel reduction must surface the same
//     failure instead of hiding it. The lowest poisoned index is
//     reported so the error message matches the sequential scan's.
//
// The width is the call's workers argument, and 0 means GOMAXPROCS,
// read at every call. workers == 1 — or any input smaller than the
// call site's grain — takes the exact sequential code path, so small
// inputs pay zero synchronization overhead.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// Resolve maps a call's workers argument to a concrete worker count:
// 0 means the current GOMAXPROCS, anything below 1 is clamped to the
// exact sequential path.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// plan is one chunking decision: how [0, n) is cut and how many
// goroutines work on it. numChunks < 2 (or workers == 1) selects the
// inline sequential path.
type plan struct {
	n, workers, chunk, numChunks int
}

// newPlan sizes chunks for n items with the given per-site grain (the
// minimum chunk size, chosen by the call site to amortize scheduling
// over its per-item cost). Chunks grow beyond the grain so that each
// worker sees a handful of chunks — enough dynamic slack to balance
// skewed per-item cost without drowning in atomics.
func newPlan(n, workers, grain int) plan {
	w := Resolve(workers)
	if grain < 1 {
		grain = 1
	}
	// Minimum-total-work cutoff: a sweep too small to fill two grains
	// cannot amortize goroutine fan-out, so it takes the workers=1
	// inline path. This is what keeps tiny Greedy instances from paying
	// scheduling overhead for nothing (the 0.94x Paper/Greedy parallel
	// regression in BENCH_7f78352.json).
	if n < 1 || w == 1 || n < 2*grain {
		return plan{n: n, workers: 1, chunk: n, numChunks: 1}
	}
	chunk := grain
	if balanced := n / (w * 4); balanced > chunk {
		chunk = balanced
	}
	numChunks := (n + chunk - 1) / chunk
	if numChunks < 2 {
		return plan{n: n, workers: 1, chunk: n, numChunks: 1}
	}
	if w > numChunks {
		w = numChunks
	}
	return plan{n: n, workers: w, chunk: chunk, numChunks: numChunks}
}

// run executes body(c, start, end) for every chunk c covering
// [start, end) ⊂ [0, n), fanning chunks out over p.workers goroutines
// (the caller's goroutine participates as one of them). Workers pull
// chunks from an atomic counter; cancellation is checked before every
// chunk; the first body error stops further chunk claims and every
// error is combined with errors.Join. A worker panic is captured and
// re-raised on the caller's goroutine after all workers have stopped.
func run(ctx context.Context, p plan, body func(c, start, end int) error) error {
	if p.n < 1 {
		return nil
	}
	if p.numChunks < 2 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("parallel: canceled before sequential run: %w", err)
		}
		return body(0, 0, p.n)
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		errsMu   sync.Mutex
		errs     = make([]error, p.numChunks)
		panicMu  sync.Mutex
		panicked bool
		panicVal any
		wg       sync.WaitGroup
	)
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				panicMu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			c := int(next.Add(1)) - 1
			if c >= p.numChunks {
				return
			}
			if err := ctx.Err(); err != nil {
				errsMu.Lock()
				errs[c] = fmt.Errorf("parallel: canceled before chunk %d/%d: %w", c, p.numChunks, err)
				errsMu.Unlock()
				stop.Store(true)
				return
			}
			if fault.Enabled && fault.Active(fault.SiteParallelWorker) {
				panic(fmt.Sprintf("fault: injected panic in parallel worker (chunk %d/%d)", c, p.numChunks))
			}
			start := c * p.chunk
			end := start + p.chunk
			if end > p.n {
				end = p.n
			}
			if err := body(c, start, end); err != nil {
				errsMu.Lock()
				errs[c] = err
				errsMu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	for i := 1; i < p.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker() // the caller participates
	wg.Wait()

	if panicked {
		// Re-raise on the caller's goroutine so the public panic
		// boundary (kregret.runSolver) sees it exactly like a
		// sequential panic. The original value is preserved.
		panic(panicVal)
	}
	return errors.Join(errs...)
}

// For splits [0, n) into chunks of at least grain indices and runs
// body(start, end) for each, concurrently on up to `workers`
// goroutines (0 = GOMAXPROCS). With workers == 1 — or when n is
// too small to fill two chunks — body runs once, inline, as
// body(0, n): the exact sequential path.
//
// The body must confine writes to the chunk's own indices (or to
// state owned by the chunk index); reads of shared state must be
// free of concurrent writers. cmd/kregret-vet's slicealias analyzer
// flags chunk bodies that write captured variables outside that
// discipline.
func For(ctx context.Context, n, workers, grain int, body func(start, end int) error) error {
	return run(ctx, newPlan(n, workers, grain), func(_, start, end int) error {
		return body(start, end)
	})
}

// NaNError reports that a reduction met a NaN value. Index is the
// lowest poisoned index, matching what a sequential in-order scan
// would have reported first.
type NaNError struct{ Index int }

func (e *NaNError) Error() string {
	return fmt.Sprintf("parallel: NaN value at index %d poisons the reduction", e.Index)
}

// seqCtxBatch is how many items the inline sequential reduction scans
// between cancellation checks, mirroring the scan-batch granularity of
// the sequential core loops.
const seqCtxBatch = 4096

// ArgMax returns the index attaining the maximum of value(i) over all
// i in [0, n) for which value reports ok, together with that maximum.
// Ties are broken toward the lowest index and NaN values poison the
// whole reduction (returning *NaNError with the lowest poisoned
// index), so the result is byte-identical to the sequential scan
//
//	best := -1
//	for i := 0; i < n; i++ { if ok && v > bestVal { best, bestVal = i, v } }
//
// regardless of worker count or chunk boundaries. When no index is ok
// it returns (-1, 0, nil).
func ArgMax(ctx context.Context, n, workers, grain int, value func(i int) (float64, bool)) (int, float64, error) {
	p := newPlan(n, workers, grain)
	if p.numChunks < 2 {
		return argMaxRange(ctx, 0, n, value)
	}
	type local struct {
		idx    int
		val    float64
		nanIdx int
	}
	locals := make([]local, p.numChunks)
	err := run(ctx, p, func(c, start, end int) error {
		best, bestVal, nanIdx := -1, 0.0, -1
		for i := start; i < end; i++ {
			v, ok := value(i)
			if !ok {
				continue
			}
			if math.IsNaN(v) {
				nanIdx = i
				break // lower indices in this chunk are clean; chunks merge by min
			}
			if best < 0 || v > bestVal {
				best, bestVal = i, v
			}
		}
		locals[c] = local{idx: best, val: bestVal, nanIdx: nanIdx}
		return nil
	})
	if err != nil {
		return -1, 0, err
	}
	// Deterministic merge in chunk (= index) order: the lowest NaN
	// wins the poison check; otherwise strictly-greater keeps the
	// lowest index on value ties.
	best, bestVal := -1, 0.0
	for _, l := range locals {
		if l.nanIdx >= 0 {
			return -1, 0, &NaNError{Index: l.nanIdx}
		}
		if l.idx >= 0 && (best < 0 || l.val > bestVal) {
			best, bestVal = l.idx, l.val
		}
	}
	return best, bestVal, nil
}

// argMaxRange is the sequential reduction over [start, end), with the
// same NaN poisoning and cancellation granularity as the parallel
// path.
func argMaxRange(ctx context.Context, start, end int, value func(i int) (float64, bool)) (int, float64, error) {
	best, bestVal := -1, 0.0
	for i := start; i < end; i++ {
		if (i-start)%seqCtxBatch == 0 {
			if err := ctx.Err(); err != nil {
				return -1, 0, fmt.Errorf("parallel: canceled during reduction: %w", err)
			}
		}
		v, ok := value(i)
		if !ok {
			continue
		}
		if math.IsNaN(v) {
			return -1, 0, &NaNError{Index: i}
		}
		if best < 0 || v > bestVal {
			best, bestVal = i, v
		}
	}
	return best, bestVal, nil
}
