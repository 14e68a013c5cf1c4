//go:build kregretfault

// Fault-injection tests for the engine's self-healing layer: the
// degradation chain's perturbed re-run rescuing a transiently failing
// solver (counted in Stats), and the stuck-query watchdog quarantining
// a stuck solver's breaker while sparing a brief overrun. They
// compile only under the kregretfault tag (`make test-serve`).
package kregret

import (
	"context"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestEnginePerturbedRetryRescuesTransientFault arms exactly one NaN
// shot: GeoGreedy fails once, the degradation chain's perturbed re-run
// of GeoGreedy answers, and the engine counts that one re-run and its
// rescue. The answer is degraded but still GeoGreedy's.
func TestEnginePerturbedRetryRescuesTransientFault(t *testing.T) {
	defer fault.Reset()
	eng, _ := testEngine(t, WithWorkers(1))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	fault.Arm(fault.SiteGeoGreedySupport, 1)
	ans, err := eng.Query(context.Background(), 3)
	if err != nil {
		t.Fatalf("perturbed re-run did not rescue the query: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoGeoGreedy {
		t.Fatalf("want a degraded GeoGreedy answer, got %+v", ans)
	}
	if s := eng.Stats(); s.Retries != 1 || s.RetrySuccesses != 1 {
		t.Fatalf("retry not counted: retries=%d successes=%d, want 1 and 1", s.Retries, s.RetrySuccesses)
	}
}

// TestEngineWatchdogQuarantinesStuckQuery turns the LP solver into a
// slow loop that outlives its deadline by an order of magnitude: the
// watchdog must flag the in-flight query and trip its algorithm's
// breaker, so follow-up traffic short-circuits to Cube instead of
// piling onto the stuck solver.
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
	key := AlgoGreedy.String()
	if state := s.Breakers[key]; state != "open" {
		t.Fatalf("breaker %s = %q, want open (quarantined): %v", key, state, s.Breakers)
	}

	// The quarantine redirects the next Greedy query to Cube.
	ans, err := eng.Query(context.Background(), 2, WithAlgorithm(AlgoGreedy))
	if err != nil {
		t.Fatalf("quarantined solver stopped serving: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoCube {
		t.Fatalf("quarantined solver not short-circuited to Cube: %+v", ans)
	}
	if s := eng.Stats(); s.BreakerShortCircuits == 0 {
		t.Fatalf("short-circuit not counted: %+v", s)
	}
}

// TestEngineWatchdogSparesBriefOverrun pins the watchdog's grace: a
// query that overruns its deadline by less than one interval returns
// before its timer fires, so it is not counted and its algorithm's
// breaker stays closed.
func TestEngineWatchdogSparesBriefOverrun(t *testing.T) {
	defer fault.Reset()
	const interval = 400 * time.Millisecond
	eng, _ := testEngine(t,
		WithWorkers(1),
		WithWatchdog(interval),
		WithBreaker(5, time.Second))
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	// Fill the epoch's candidate caches first, as above.
	if _, err := eng.Query(context.Background(), 2, WithAlgorithm(AlgoGreedy)); err != nil {
		t.Fatal(err)
	}

	// One simplex pivot batch stalls 40ms against a 10ms budget: the
	// query overruns its deadline by about 30ms, far inside the grace.
	fault.ArmSleep(fault.SiteLPSlowPivot, 1, 40*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _ = eng.Query(ctx, 2, WithAlgorithm(AlgoGreedy))
	elapsed := time.Since(start)
	fault.Reset()
	if elapsed < 40*time.Millisecond {
		t.Fatalf("query took %v: the armed stall never ran", elapsed)
	}

	s := eng.Stats()
	if s.WatchdogStuck != 0 {
		t.Fatalf("watchdog flagged a query that overran by %v, under its %v grace: %+v", elapsed-10*time.Millisecond, interval, s)
	}
	key := AlgoGreedy.String()
	if state := s.Breakers[key]; state != "closed" {
		t.Fatalf("breaker %s = %q, want closed: %v", key, state, s.Breakers)
	}
}
