package kregret

import (
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func testEngine(t *testing.T, opts ...EngineOption) (*Engine, *Dataset) {
	t.Helper()
	ds, err := NewDataset(testPoints(200, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ds
}

// TestEngineStress is the acceptance stress: ≥200 concurrent queries
// against a pool of 4 workers and a queue of 8. Every request must be
// answered, shed with ErrOverloaded/ErrShed, or canceled — none lost
// — with zero data races (the suite runs under -race).
func TestEngineStress(t *testing.T) {
	eng, ds := testEngine(t, WithWorkers(4), WithQueueDepth(8))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	const n = 200
	var (
		answered, overloaded, shed, canceled atomic.Int64
		wg                                   sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%4 == 3 { // a quarter arrive with tight or dead deadlines
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
				defer cancel()
			}
			ans, err := eng.Query(ctx, 1+i%6)
			switch {
			case err == nil:
				if len(ans.Indices) == 0 || ans.MRR < 0 || ans.MRR > 1 {
					t.Errorf("bad answer under load: %+v", ans)
				}
				answered.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case errors.Is(err, ErrShed):
				shed.Add(1)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				canceled.Add(1)
			default:
				t.Errorf("unclassified outcome: %v", err)
			}
		}(i)
	}
	wg.Wait()
	total := answered.Load() + overloaded.Load() + shed.Load() + canceled.Load()
	if total != n {
		t.Fatalf("classified %d of %d requests (answered=%d overloaded=%d shed=%d canceled=%d)",
			total, n, answered.Load(), overloaded.Load(), shed.Load(), canceled.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("no request was answered under load")
	}
	s := eng.Stats()
	accounted := s.Completed + s.ShedOverload + s.ShedDeadline + s.Canceled + s.RejectedShutdown
	if accounted != n {
		t.Fatalf("engine stats account for %d of %d requests: %+v", accounted, n, s)
	}
	// The dataset answers identically after the storm.
	if _, err := ds.Query(3); err != nil {
		t.Fatalf("dataset unusable after stress: %v", err)
	}
}

func TestEngineQueryMatchesDataset(t *testing.T) {
	eng, ds := testEngine(t)
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	want, err := ds.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.MRR != want.MRR || len(got.Indices) != len(want.Indices) {
		t.Fatalf("engine answer %+v diverges from dataset answer %+v", got, want)
	}
	if got.Degraded {
		t.Fatalf("healthy engine query marked degraded: %+v", got)
	}
	// Per-call options pass through.
	greedy, err := eng.Query(context.Background(), 5, WithAlgorithm(AlgoGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Algorithm != AlgoGreedy {
		t.Fatalf("per-call algorithm ignored: %+v", greedy)
	}
	if _, err := eng.Query(context.Background(), 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("k=0 accepted: %v", err)
	}
}

// TestEngineQueryAllocs pins the cost of admission: a query the prefix
// list covers runs on its caller's goroutine, so it allocates only the
// Answer and its indices — nothing for the hand-off through the pool,
// and nothing for the defaults a query without options resolves to.
func TestEngineQueryAllocs(t *testing.T) {
	eng, _ := testEngine(t)
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	if _, err := eng.Query(ctx, 20); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Query(ctx, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a list-served Engine.Query makes %v allocations, want at most 2", allocs)
	}
}

func TestEngineQueryTimeoutBudget(t *testing.T) {
	// A per-query budget far too small for this dataset must surface
	// as a deadline error even though the caller set no deadline.
	ds, err := NewDataset(spherePoints(2000, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithWorkers(1), WithQueryTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	start := time.Now()
	_, err = eng.Query(context.Background(), 80, WithCandidates(CandidatesAll))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from the query budget, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("budget took %v to bite", elapsed)
	}
}

func TestEngineSnapshotStartup(t *testing.T) {
	ds, err := NewDataset(testPoints(200, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")

	// First startup: no file → rebuild and write it.
	eng1, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	if !eng1.Stats().SnapshotRebuilt {
		t.Fatal("first startup should report a rebuild")
	}
	ans1, err := eng1.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second startup: loads the snapshot, no rebuild.
	eng2, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Stats().SnapshotRebuilt {
		t.Fatal("second startup rebuilt despite a valid snapshot")
	}
	if eng2.Index() == nil {
		t.Fatal("snapshot engine has no index")
	}
	ans2, err := eng2.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ans1.MRR != ans2.MRR {
		t.Fatalf("snapshot answer MRR %v != rebuilt answer MRR %v", ans2.MRR, ans1.MRR)
	}
	// Index fast path must agree with the live solver.
	live, err := ds.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.MRR != live.MRR {
		t.Fatalf("indexed MRR %v != live MRR %v", ans2.MRR, live.MRR)
	}
	if err := eng2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Corrupt the snapshot: startup must fall back to a rebuild, not
	// fail, and must repair the file on disk.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	eng3, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatalf("corrupt snapshot killed startup: %v", err)
	}
	if !eng3.Stats().SnapshotRebuilt {
		t.Fatal("corrupt snapshot not reported as rebuilt")
	}
	if err := eng3.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("snapshot not repaired after rebuild: %v", err)
	}
}

// TestNewEngineContextCanceledRebuild: a snapshot rebuild at startup
// runs under the constructor's context. Canceled, it fails with
// context.Canceled and writes no snapshot.
func TestNewEngineContextCanceledRebuild(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("unsharded", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "idx.snap")
		eng, err := NewEngineContext(ctx, ds, WithSnapshot(path))
		if err == nil {
			shutdownEngine(t, eng)
			t.Fatal("rebuild under a canceled context succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("canceled rebuild wrote a snapshot (stat: %v)", err)
		}
	})
}

func TestEngineSnapshotMismatchRebuilds(t *testing.T) {
	ds, err := NewDataset(testPoints(200, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewDataset(testPoints(150, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	idx, err := other.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveFile(path, other); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatalf("mismatched snapshot killed startup: %v", err)
	}
	if !eng.Stats().SnapshotRebuilt {
		t.Fatal("mismatched snapshot not rebuilt")
	}
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStatsShape(t *testing.T) {
	eng, _ := testEngine(t, WithWorkers(3), WithQueueDepth(7))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := eng.Query(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Workers != 3 || s.QueueDepth != 7 {
		t.Fatalf("config not echoed: %+v", s)
	}
	if s.Admitted != 1 || s.Completed != 1 {
		t.Fatalf("counters wrong after one query: %+v", s)
	}
	if state := s.Breakers["GeoGreedy"]; state != "closed" {
		t.Fatalf("breaker state %q, want closed (%v)", state, s.Breakers)
	}
	if s.Retries != 0 || s.RetrySuccesses != 0 || s.WatchdogStuck != 0 || s.ShedAtDequeue != 0 {
		t.Fatalf("self-healing counters nonzero after one healthy query: %+v", s)
	}
}

// TestEngineBreakersPerAlgorithm: an engine guards GeoGreedy and
// Greedy with one breaker each, named in Stats by the algorithm. A
// Cube query consults no breaker and adds none.
func TestEngineBreakersPerAlgorithm(t *testing.T) {
	eng, _ := testEngine(t)
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	if _, err := eng.Query(ctx, 3, WithAlgorithm(AlgoCube)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, 3); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"GeoGreedy": "closed", "Greedy": "closed"}
	if got := eng.Stats().Breakers; !maps.Equal(got, want) {
		t.Fatalf("breakers %v, want %v", got, want)
	}
}

// TestEngineWatchdogTripsRequestedBreaker: the watchdog's check of a
// query past its deadline trips the breaker of the query's algorithm
// and no other, and a flagged Cube query is counted but trips none.
func TestEngineWatchdogTripsRequestedBreaker(t *testing.T) {
	eng, _ := testEngine(t, WithWatchdog(time.Millisecond), WithBreaker(5, time.Hour))
	defer shutdownEngine(t, eng)
	for i, tc := range []struct {
		alg  Algorithm
		want map[string]string
	}{
		{AlgoCube, map[string]string{"GeoGreedy": "closed", "Greedy": "closed"}},
		{AlgoGreedy, map[string]string{"GeoGreedy": "closed", "Greedy": "open"}},
	} {
		// The deadline is long past, so the check fires at once; disarm
		// then waits for it.
		disarm := eng.armWatchdog(tc.alg, time.Now().Add(-time.Hour))
		for start := time.Now(); eng.Stats().WatchdogStuck != uint64(i+1); time.Sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("%v: the watchdog never fired", tc.alg)
			}
		}
		disarm()
		if got := eng.Stats().Breakers; !maps.Equal(got, tc.want) {
			t.Fatalf("%v flagged: breakers %v, want %v", tc.alg, got, tc.want)
		}
	}
}

// TestEngineShutdownIdempotent pins the double-shutdown contract: the
// second call returns cleanly with no panic, the counters are stable
// across it, and a post-shutdown Query returns ErrShuttingDown
// wrapped in a *serve.OverloadError carrying the pool pressure.
func TestEngineShutdownIdempotent(t *testing.T) {
	eng, _ := testEngine(t, WithWorkers(2), WithWatchdog(2*time.Millisecond))
	if _, err := eng.Query(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	s1 := eng.Stats()
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	s2 := eng.Stats()
	// Counter stability across the idempotent call. The drain is
	// recorded before the first Shutdown returns, so its duration is
	// set and stable too.
	if s1.Admitted != s2.Admitted || s1.Completed != s2.Completed ||
		s1.Canceled != s2.Canceled || s1.ShedOverload != s2.ShedOverload ||
		s1.ShedDeadline != s2.ShedDeadline || s1.RejectedShutdown != s2.RejectedShutdown ||
		s1.DrainDuration <= 0 || s1.DrainDuration != s2.DrainDuration {
		t.Fatalf("counters moved across an idempotent Shutdown:\n%+v\n%+v", s1, s2)
	}

	_, err := eng.Query(context.Background(), 3)
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Query: want ErrShuttingDown, got %v", err)
	}
	var oe *serve.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("post-shutdown Query error is not an *serve.OverloadError: %v", err)
	}
	if !errors.Is(oe.Sentinel, serve.ErrShuttingDown) || oe.Workers != 2 {
		t.Fatalf("OverloadError carries wrong context: %+v", oe)
	}
	if s3 := eng.Stats(); s3.RejectedShutdown != s2.RejectedShutdown+1 {
		t.Fatalf("rejection not counted: %+v", s3)
	}
}

// TestEngineWatchdogShutdownNoLeak proves a watchdog engine leaves no
// goroutine behind: after a full drain the process goroutine count
// returns to its pre-engine baseline.
func TestEngineWatchdogShutdownNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := testEngine(t, WithWorkers(2), WithWatchdog(time.Millisecond))
	if _, err := eng.Query(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
