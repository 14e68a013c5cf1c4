//go:build kregretfault

// Fault-injection tests for the default serving path: the prefix-list
// build is the degradation chain's first attempt, so a failing build
// stores nothing and the query continues down the chain exactly as a
// failed solve would; and an open breaker still lets a covered k
// answer from the list while an uncovered one goes to Cube.
package kregret

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestPrefixBuildFailureIsFirstAttempt: one NaN shot fails the build.
// No list is stored, the perturbed re-run answers, and the answer is
// the one Dataset.Query gives under the same shot. Once the fault is
// gone the next query builds the list and answers undegraded.
func TestPrefixBuildFailureIsFirstAttempt(t *testing.T) {
	armed(t)
	eng, ds := testEngine(t, WithWorkers(1))
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	if _, err := ds.HappyPoints(); err != nil { // the shot must hit the build
		t.Fatal(err)
	}

	fault.Arm(fault.SiteGeoGreedySupport, 1)
	got, err := eng.Query(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fault.Fired(fault.SiteGeoGreedySupport) != 1 {
		t.Fatal("the build never reached the armed site")
	}
	if !got.Degraded || got.Algorithm != AlgoGeoGreedy || !strings.Contains(got.FallbackReason, "epsilon perturbation") {
		t.Fatalf("want the perturbed re-run's answer, got %+v", got)
	}
	if s := eng.Stats(); s.Retries != 1 || s.RetrySuccesses != 1 || s.Degraded != 1 {
		t.Fatalf("chain not counted: %+v", s)
	}
	st := eng.epoch.Load().ds.snap()
	if l := st.prefix.Load().cell.list.Load(); l != nil {
		t.Fatalf("the failed build stored a %d-entry list", l.Len())
	}
	fault.Arm(fault.SiteGeoGreedySupport, 1)
	want, err := ds.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffAnswer(got, want); err != nil {
		t.Fatalf("engine chain differs from Dataset.Query's: %v", err)
	}

	fault.Reset()
	got, err = eng.Query(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = ds.Query(3); err != nil {
		t.Fatal(err)
	}
	if err := diffAnswer(got, want); err != nil || got.Degraded {
		t.Fatalf("healthy query after the fault: %+v (%v)", got, err)
	}
	if l := st.prefix.Load().cell.list.Load(); !l.Covers(3) {
		t.Fatal("a healthy build stored no list")
	}
}

// TestBreakerOpenServesCoveredList: with the default configuration's
// breaker open, a k the list covers still answers exactly from it,
// and an uncovered k is answered by Cube without running GeoGreedy.
func TestBreakerOpenServesCoveredList(t *testing.T) {
	armed(t)
	eng, ds := testEngine(t, WithWorkers(1), WithBreaker(1, time.Hour))
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	if _, err := eng.Query(ctx, 5); err != nil {
		t.Fatal(err)
	}
	eng.breakers.For(breakerKey(AlgoGeoGreedy, ds.Dim())).Trip()

	for _, k := range []int{5, 2, 4} {
		got, err := eng.Query(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffAnswer(got, want); err != nil {
			t.Fatalf("covered k=%d under an open breaker: %v", k, err)
		}
	}
	if n := eng.Stats().BreakerShortCircuits; n != 0 {
		t.Fatalf("covered queries short-circuited %d times", n)
	}

	fault.Observe(fault.SiteGeoGreedySupport)
	got, err := eng.Query(ctx, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != AlgoCube || !got.Degraded || !strings.Contains(got.FallbackReason, "circuit breaker open") {
		t.Fatalf("uncovered k under an open breaker: %+v", got)
	}
	if n := eng.Stats().BreakerShortCircuits; n != 1 {
		t.Fatalf("short circuits %d, want 1", n)
	}
	if n := fault.Fired(fault.SiteGeoGreedySupport); n != 0 {
		t.Fatalf("an open breaker still grew the list (%d support evaluations)", n)
	}
	if l := eng.epoch.Load().ds.snap().prefix.Load().cell.list.Load(); l.Len() != 5 {
		t.Fatalf("the list grew to %d entries behind an open breaker", l.Len())
	}
}

// TestPrefixBuildFailurePastK: a build that grows past k and fails in
// an iteration beyond k is repeated to exactly k, the run GeoGreedy at
// k makes, so the answer stays Dataset.Query's undegraded one.
func TestPrefixBuildFailurePastK(t *testing.T) {
	armed(t)
	eng, ds := testEngine(t, WithWorkers(1))
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	if _, err := eng.Query(ctx, ds.Dim()); err != nil { // the seeds: no greedy iteration
		t.Fatal(err)
	}
	k := ds.Dim() + 1 // grows the list to 2·Dim: iterations Dim+1 … 2·Dim
	fault.ArmAfter(fault.SiteGeoGreedyPanic, 1, 1)
	got, err := eng.Query(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if fault.Fired(fault.SiteGeoGreedyPanic) != 1 {
		t.Fatal("the growing build never reached the armed iteration")
	}
	want, err := ds.Query(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffAnswer(got, want); err != nil || got.Degraded {
		t.Fatalf("answer after a failure past k: %+v (%v)", got, err)
	}
	if l := eng.epoch.Load().ds.snap().prefix.Load().cell.list.Load(); l.Len() != k {
		t.Fatalf("list holds %d entries, want the %d of the repeated build", l.Len(), k)
	}
}
