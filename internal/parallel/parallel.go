// Package parallel is the fan-out substrate of the geometry core: a
// chunked parallel-for built only on the standard library.
//
// A loop earns a call here only where splitting it measurably pays at
// width 2 (DESIGN.md §11 lists each site with its numbers): the happy
// certificate, the coreset direction net, the shard covers, the
// evaluator's support scan and sample loop, and Greedy's
// per-candidate LPs. Every
// one reads shared immutable state (the dual hull, the point slice)
// and writes at most its own index. The package keeps two contracts
// the rest of the repository depends on:
//
//   - Determinism. For writes only disjoint indices, and every
//     reduction runs after the join, sequentially and in index order
//     at the call site, so parallel results are byte-identical to the
//     sequential ones. A NaN is the fold's to report: GeoGreedy's
//     maxSupport and the evaluator's regret fold return
//     ErrDegenerate naming the lowest poisoned index. Differential
//     tests in internal/core assert equality of full query answers at
//     parallelism 1 vs N.
//
//   - Failure transparency. A panic on a worker goroutine is captured
//     and re-raised on the caller's goroutine, so the public panic
//     boundary in package kregret converts it into a *NumericalError
//     exactly as it does for sequential panics. Body errors are
//     combined with errors.Join; cancellation is checked between
//     chunks so a dead context stops the fan-out within one chunk.
//
// The width is the call's workers argument, and 0 means GOMAXPROCS,
// read at every call. workers == 1 — or any input smaller than two of
// the call site's grains — takes the exact sequential code path, so
// small inputs pay zero synchronization overhead.
package parallel

import (
	"context"
	"errors"
	"fmt"
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

// For splits [0, n) into chunks of at least grain indices and runs
// body(start, end) for each, concurrently on up to `workers`
// goroutines (0 = GOMAXPROCS; the caller's goroutine is one of them).
// With workers == 1 — or when n is too small to fill two chunks —
// body runs once, inline, as body(0, n): the exact sequential path.
//
// Workers pull chunks from an atomic counter; cancellation is checked
// before every chunk; the first body error stops further chunk claims
// and every error is combined with errors.Join. A worker panic is
// captured and re-raised on the caller's goroutine after all workers
// have stopped.
//
// The body must confine writes to the chunk's own indices; reads of
// shared state must be free of concurrent writers. cmd/kregret-vet's
// slicealias analyzer flags chunk bodies that write captured
// variables outside that discipline.
func For(ctx context.Context, n, workers, grain int, body func(start, end int) error) error {
	p := newPlan(n, workers, grain)
	if p.n < 1 {
		return nil
	}
	if p.numChunks < 2 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("parallel: canceled before sequential run: %w", err)
		}
		return body(0, p.n)
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
			if err := body(start, end); err != nil {
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
