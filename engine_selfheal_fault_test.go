//go:build kregretfault

// Fault-injection tests for the engine's self-healing layer: the
// per-request retry budget rescuing a transiently failing solver, the
// deadline cap that forbids retrying doomed work, and the stuck-query
// watchdog quarantining a pathological breaker key. They compile only
// under the kregretfault tag (`make test-serve`).
package kregret

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestEngineRetryRescuesTransientFault arms exactly one NaN shot: the
// first attempt fails with a *NumericalError (fallback disabled), the
// retry runs clean, and the caller sees a non-degraded answer it
// could not have gotten without the budget.
func TestEngineRetryRescuesTransientFault(t *testing.T) {
	defer fault.Reset()
	eng, ds := testEngine(t, WithWorkers(1), WithRetryBudget(2, time.Millisecond))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	// Control: the same query without faults.
	want, err := ds.Query(3)
	if err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.SiteGeoGreedySupport, 1)
	ans, err := eng.Query(context.Background(), 3, WithoutFallback())
	if err != nil {
		t.Fatalf("retry did not rescue the query: %v", err)
	}
	if ans.Degraded {
		t.Fatalf("rescued answer is degraded: %+v", ans)
	}
	if len(ans.Indices) != len(want.Indices) {
		t.Fatalf("rescued answer differs from control: %v vs %v", ans.Indices, want.Indices)
	}
	for i := range ans.Indices {
		if ans.Indices[i] != want.Indices[i] {
			t.Fatalf("rescued answer differs from control: %v vs %v", ans.Indices, want.Indices)
		}
	}
	s := eng.Stats()
	if s.Retries < 1 || s.RetrySuccesses < 1 {
		t.Fatalf("retry not counted: retries=%d successes=%d", s.Retries, s.RetrySuccesses)
	}
}

// TestEngineRetryNeverPastDeadline arms a permanent failure and gives
// the query a deadline shorter than the first backoff: the engine
// must return the failure without sleeping into the dead zone.
func TestEngineRetryNeverPastDeadline(t *testing.T) {
	defer fault.Reset()
	eng, _ := testEngine(t, WithWorkers(1), WithRetryBudget(3, 200*time.Millisecond))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	fault.Arm(fault.SiteGeoGreedySupport, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := eng.Query(ctx, 3, WithoutFallback())
	elapsed := time.Since(start)

	if !core.IsNumerical(err) {
		t.Fatalf("want the numerical failure back, got %v", err)
	}
	if s := eng.Stats(); s.Retries != 0 {
		t.Fatalf("engine retried into a dead deadline: retries=%d", s.Retries)
	}
	// The first backoff draw is at least 100ms; finishing well under
	// it proves no wait was attempted.
	if elapsed >= 100*time.Millisecond {
		t.Fatalf("query held a worker %v despite a 50ms budget", elapsed)
	}
}

// TestEngineWatchdogQuarantinesStuckQuery turns the LP solver into a
// slow loop that outlives its deadline by an order of magnitude: the
// watchdog must flag the in-flight query and trip the breaker for its
// (algorithm, dim) key, so follow-up traffic short-circuits to Cube
// instead of piling onto the stuck regime.
func TestEngineWatchdogQuarantinesStuckQuery(t *testing.T) {
	defer fault.Reset()
	eng, _ := testEngine(t,
		WithWorkers(1),
		WithWatchdog(3*time.Millisecond),
		WithBreaker(5, time.Second))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	// An unfaulted query first fills the epoch's candidate caches, so
	// the 10ms budget below is spent inside the stalled solver rather
	// than in first-query preprocessing, which alone can outlast it
	// under -race.
	if _, err := eng.Query(context.Background(), 2, WithAlgorithm(AlgoGreedy)); err != nil {
		t.Fatal(err)
	}

	// Every simplex pivot batch stalls 60ms; the query budget is
	// 10ms, so the worker runs ~50ms past its deadline — far beyond
	// the watchdog's one-interval grace.
	fault.ArmSleep(fault.SiteLPSlowPivot, -1, 60*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := eng.Query(ctx, 2, WithAlgorithm(AlgoGreedy)); err == nil {
		t.Fatal("stalled query returned no error")
	}
	fault.Reset()

	s := eng.Stats()
	if s.WatchdogStuck == 0 {
		t.Fatalf("watchdog missed the stuck query: %+v", s)
	}
	key := breakerKey(AlgoGreedy, 3)
	if state := s.Breakers[key]; state != "open" {
		t.Fatalf("breaker %s = %q, want open (quarantined): %v", key, state, s.Breakers)
	}

	// The quarantine redirects the next query for the key to Cube.
	ans, err := eng.Query(context.Background(), 2, WithAlgorithm(AlgoGreedy))
	if err != nil {
		t.Fatalf("quarantined key stopped serving: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoCube {
		t.Fatalf("quarantined key not short-circuited to Cube: %+v", ans)
	}
	if s := eng.Stats(); s.BreakerShortCircuits == 0 {
		t.Fatalf("short-circuit not counted: %+v", s)
	}
}
