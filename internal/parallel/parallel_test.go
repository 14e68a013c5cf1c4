package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestResolve pins the width mapping, with 0 following the live
// GOMAXPROCS: a changed GOMAXPROCS (as under go test -cpu 1,2) must
// change the width of every later Resolve(0).
func TestResolve(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 3, 2} {
		runtime.GOMAXPROCS(procs)
		if got := Resolve(0); got != procs {
			t.Fatalf("Resolve(0) = %d at GOMAXPROCS %d", got, procs)
		}
	}
	if got := Resolve(-3); got != 1 {
		t.Fatalf("Resolve(-3) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
}

// TestForCoversAllIndices checks that every index in [0, n) is visited
// exactly once for a spread of sizes, worker counts and grains —
// including the degenerate n = 0 and the inline sequential path.
func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 4096, 10000} {
		for _, workers := range []int{1, 2, 4, 13} {
			for _, grain := range []int{1, 64, 5000} {
				visits := make([]int32, n)
				err := For(context.Background(), n, workers, grain, func(start, end int) error {
					if start < 0 || end > n || start > end {
						return fmt.Errorf("bad chunk [%d, %d) for n=%d", start, end, n)
					}
					for i := start; i < end; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("For(n=%d, w=%d, g=%d): %v", n, workers, grain, err)
				}
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("For(n=%d, w=%d, g=%d): index %d visited %d times", n, workers, grain, i, v)
					}
				}
			}
		}
	}
}

// TestForSequentialIsInline proves workers == 1 makes exactly one
// body call spanning the whole range — the contract that lets call
// sites treat parallelism 1 as the untouched sequential path.
func TestForSequentialIsInline(t *testing.T) {
	calls := 0
	err := For(context.Background(), 100000, 1, 1, func(start, end int) error {
		calls++
		if start != 0 || end != 100000 {
			t.Fatalf("sequential chunk = [%d, %d), want [0, 100000)", start, end)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("sequential path made %d body calls, want 1", calls)
	}
}

func TestForPropagatesBodyError(t *testing.T) {
	boom := errors.New("boom")
	err := For(context.Background(), 10000, 4, 1, func(start, end int) error {
		if start == 0 {
			return fmt.Errorf("chunk zero: %w", boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("For error = %v, want wrapping %v", err, boom)
	}
}

func TestForJoinsMultipleErrors(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Every chunk fails; errors.Join must surface all of them that
	// were recorded before the stop flag won the race — at minimum
	// the first.
	err := For(context.Background(), 10000, 4, 1, func(start, end int) error {
		if start%2 == 0 {
			return errA
		}
		return errB
	})
	if err == nil {
		t.Fatal("want an error, got nil")
	}
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("joined error %v wraps neither input", err)
	}
}

func TestForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 10000, 4, 1, func(start, end int) error {
		t.Error("body ran under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("For error = %v, want context.Canceled", err)
	}
	// Sequential path too.
	err = For(ctx, 10, 1, 1, func(start, end int) error {
		t.Error("sequential body ran under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential For error = %v, want context.Canceled", err)
	}
}

func TestForCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Every body call cancels (cancel is idempotent), so no worker can
	// pass the context check of a second chunk. With more chunks than
	// workers, some worker always claims one and records the error.
	err := For(ctx, 1<<20, 4, 1, func(start, end int) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("For error = %v, want context.Canceled", err)
	}
}

// TestForPanicReraisedOnCaller proves a worker panic crosses back to
// the calling goroutine with its original value, so the public panic
// boundary in kregret sees it exactly like a sequential panic.
func TestForPanicReraisedOnCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the worker panic to be re-raised on the caller")
		}
		if s, ok := r.(string); !ok || s != "worker exploded" {
			t.Fatalf("recovered %v (%T), want the original panic value", r, r)
		}
	}()
	_ = For(context.Background(), 10000, 4, 1, func(start, end int) error {
		if start >= 5000 {
			panic("worker exploded")
		}
		return nil
	})
	t.Fatal("For returned instead of panicking")
}

func TestArgMaxMatchesSequential(t *testing.T) {
	// Values with deliberate duplicates so the lowest-index tie-break
	// is exercised, across sizes and worker counts.
	for _, n := range []int{0, 1, 5, 1000, 10000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i * 7919) % 257) // many ties
		}
		value := func(i int) (float64, bool) { return vals[i], i%11 != 3 }

		wantIdx, wantVal := -1, 0.0
		for i := 0; i < n; i++ {
			v, ok := value(i)
			if ok && (wantIdx < 0 || v > wantVal) {
				wantIdx, wantVal = i, v
			}
		}
		for _, workers := range []int{1, 2, 4, 9} {
			idx, val, err := ArgMax(context.Background(), n, workers, 1, value)
			if err != nil {
				t.Fatalf("ArgMax(n=%d, w=%d): %v", n, workers, err)
			}
			if idx != wantIdx || val != wantVal {
				t.Fatalf("ArgMax(n=%d, w=%d) = (%d, %v), want (%d, %v)", n, workers, idx, val, wantIdx, wantVal)
			}
		}
	}
}

func TestArgMaxAllExcluded(t *testing.T) {
	for _, workers := range []int{1, 4} {
		idx, val, err := ArgMax(context.Background(), 1000, workers, 1, func(i int) (float64, bool) {
			return 42, false
		})
		if err != nil {
			t.Fatal(err)
		}
		if idx != -1 || val != 0 {
			t.Fatalf("ArgMax with no ok index = (%d, %v), want (-1, 0)", idx, val)
		}
	}
}

// TestArgMaxNaNPoisoning: a NaN anywhere must yield *NaNError with the
// lowest NaN index, independent of worker count and of higher values
// appearing after it.
func TestArgMaxNaNPoisoning(t *testing.T) {
	n := 10000
	for _, nanAt := range []int{0, 1, 4999, 5000, n - 1} {
		for _, workers := range []int{1, 2, 4, 16} {
			idx, _, err := ArgMax(context.Background(), n, workers, 1, func(i int) (float64, bool) {
				if i == nanAt || i == nanAt+137 { // a second NaN higher up must lose
					return math.NaN(), true
				}
				return float64(i), true
			})
			var nanErr *NaNError
			if !errors.As(err, &nanErr) {
				t.Fatalf("nanAt=%d w=%d: err = %v, want *NaNError", nanAt, workers, err)
			}
			if nanErr.Index != nanAt {
				t.Fatalf("nanAt=%d w=%d: reported index %d, want lowest NaN index %d", nanAt, workers, nanErr.Index, nanAt)
			}
			if idx != -1 {
				t.Fatalf("nanAt=%d w=%d: idx = %d, want -1 on poisoning", nanAt, workers, idx)
			}
		}
	}
}

func TestArgMaxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, _, err := ArgMax(ctx, 100000, workers, 1, func(i int) (float64, bool) { return float64(i), true })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestArgMaxNegativeInfinity: -Inf values are legal (they just never
// win against anything finite) and must not be confused with "no ok
// index" — a lone -Inf is still the argmax.
func TestArgMaxNegativeInfinity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		idx, val, err := ArgMax(context.Background(), 100, workers, 1, func(i int) (float64, bool) {
			return math.Inf(-1), i == 37
		})
		if err != nil {
			t.Fatal(err)
		}
		if idx != 37 || !math.IsInf(val, -1) {
			t.Fatalf("w=%d: = (%d, %v), want (37, -Inf)", workers, idx, val)
		}
	}
}

func TestPlanThresholds(t *testing.T) {
	// Below-grain input collapses to the sequential plan.
	if p := newPlan(100, 8, 200); p.numChunks != 1 || p.workers != 1 {
		t.Fatalf("newPlan(100, 8, grain=200) = %+v, want sequential", p)
	}
	// Workers never exceed chunks.
	if p := newPlan(10, 64, 5); p.workers > p.numChunks {
		t.Fatalf("newPlan(10, 64, 5) = %+v: more workers than chunks", p)
	}
	// Chunks cover the range exactly.
	p := newPlan(100001, 4, 64)
	last := (p.numChunks - 1) * p.chunk
	if last >= p.n || p.numChunks*p.chunk < p.n {
		t.Fatalf("newPlan(100001, 4, 64) = %+v does not tile [0, n)", p)
	}
}

// TestPlanInlineCutoff asserts the minimum-total-work cutoff: any
// sweep with fewer than two grains of work must take the workers=1
// inline path — one body call spanning the whole range — no matter
// how many workers the caller requested. This is the fix for the
// Paper/Greedy parallel regression: small LP sweeps stop paying
// fan-out overhead.
func TestPlanInlineCutoff(t *testing.T) {
	if p := newPlan(300, 8, 200); p.numChunks != 1 || p.workers != 1 {
		t.Fatalf("newPlan(300, 8, grain=200) = %+v, want the sequential plan (300 < 2*200)", p)
	}
	// Exactly two grains of work is the smallest parallel plan.
	if p := newPlan(400, 8, 200); p.numChunks != 2 {
		t.Fatalf("newPlan(400, 8, grain=200) = %+v, want 2 chunks", p)
	}
	calls := 0
	err := For(context.Background(), 300, 8, 200, func(start, end int) error {
		calls++
		if start != 0 || end != 300 {
			t.Fatalf("inline cutoff chunk = [%d, %d), want [0, 300)", start, end)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("below-cutoff For made %d body calls, want 1 inline call", calls)
	}
	// ArgMax below the cutoff must use the sequential reduction too
	// (same result either way — this exercises the code path).
	idx, val, err := ArgMax(context.Background(), 300, 8, 200, func(i int) (float64, bool) {
		return float64(i % 100), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 99 || val != 99 {
		t.Fatalf("ArgMax below cutoff = (%d, %v), want (99, 99)", idx, val)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	sink := make([]float64, 1<<16)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := For(context.Background(), len(sink), workers, 1024, func(start, end int) error {
					for j := start; j < end; j++ {
						sink[j] = float64(j) * 1.0000001
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
