//go:build kregretfault

// Fault-injection tests for intra-query parallelism: a panic inside a
// parallel.For worker goroutine must be recaptured, re-raised on the
// query goroutine, converted by the runSolver panic boundary into a
// typed *NumericalError, and from there either surfaced (without
// fallback) or absorbed by the degradation chain — exactly like a
// panic on the sequential path. The dataset is large enough
// (n > 2×grain) that the one solver pass that fans out, Greedy's LP
// sweep, genuinely splits into multiple chunks; at GOMAXPROCS 1 the
// same site must be inert.
package kregret

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

// parallelFaultDataset is faultDataset scaled up past the solver
// fan-out threshold (`n < 2·grain` runs inline): Greedy's LP sweep
// chunks at 1024, so 2500 points split it into ≥ 2 chunks and the
// worker loop — where SiteParallelWorker fires — actually runs.
func parallelFaultDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(testPoints(2500, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestParallelWorkerPanicTyped: one armed shot in Greedy's LP sweep,
// no fallback — the worker panic surfaces as a *NumericalError
// carrying the original panic value.
func TestParallelWorkerPanicTyped(t *testing.T) {
	armed(t)
	ds := parallelFaultDataset(t)
	setGOMAXPROCS(t, 4)
	fault.Arm(fault.SiteParallelWorker, 1)
	ans, err := ds.Query(5, WithAlgorithm(AlgoGreedy), WithCandidates(CandidatesAll), WithoutFallback())
	if ans != nil || err == nil {
		t.Fatalf("want error, got ans=%v err=%v", ans, err)
	}
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("want *NumericalError, got %T: %v", err, err)
	}
	if ne.PanicValue == nil {
		t.Fatalf("recovered worker panic lost its value: %+v", ne)
	}
	if !strings.Contains(fmt.Sprint(ne.PanicValue), "injected panic in parallel worker") {
		t.Fatalf("panic value %v is not the injected one", ne.PanicValue)
	}
	if got := fault.Fired(fault.SiteParallelWorker); got != 1 {
		t.Fatalf("site fired %d times, want exactly 1", got)
	}
}

// TestAverageRegretWorkerPanicTyped: on warm caches the sampled
// evaluator's fan-out runs under AverageRegret's panic boundary, as
// EvaluateMRR's and WorstUtility's do: one worker panic surfaces as a
// *NumericalError whose text carries no solver configuration, since
// no solver ran.
func TestAverageRegretWorkerPanicTyped(t *testing.T) {
	armed(t)
	ds := parallelFaultDataset(t)
	sel := []int{0, 1, 2, 3, 4}
	if _, err := ds.EvaluateMRR(sel); err != nil { // warm the caches
		t.Fatal(err)
	}
	setGOMAXPROCS(t, 4)
	fault.Arm(fault.SiteParallelWorker, 1)
	avg, err := ds.AverageRegret(sel, 256, 1)
	var ne *NumericalError
	if !errors.As(err, &ne) || ne.PanicValue == nil {
		t.Fatalf("want a recovered-panic *NumericalError, got avg=%v err=%v", avg, err)
	}
	if !strings.Contains(fmt.Sprint(ne.PanicValue), "injected panic in parallel worker") {
		t.Fatalf("panic value %v is not the injected one", ne.PanicValue)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "kregret: AverageRegret panicked: ") {
		t.Fatalf("error text %q names solver fields outside a solver run", msg)
	}
	if got := fault.Fired(fault.SiteParallelWorker); got != 1 {
		t.Fatalf("site fired %d times, want exactly 1", got)
	}
	fault.Reset()
	if _, err := ds.AverageRegret(sel, 256, 1); err != nil {
		t.Fatalf("unfaulted AverageRegret after the panic: %v", err)
	}
}

// TestCacheFillPanicLeavesEpochUsable: a worker panic inside a lazy
// per-epoch cache fill (the happy certificate's fan-out, which a cold
// HappyPoints runs after the sequential skyline pass) returns a
// *NumericalError and leaves the cache unfilled, so later calls on the
// same epoch recompute the skyline, happy points and answers a fresh
// dataset computes.
func TestCacheFillPanicLeavesEpochUsable(t *testing.T) {
	armed(t)
	pts := testPoints(20000, 4, 5)
	ds, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, 4)
	fault.Arm(fault.SiteParallelWorker, 1)
	_, err = ds.HappyPoints()
	var ne *NumericalError
	if !errors.As(err, &ne) || ne.PanicValue == nil {
		t.Fatalf("want a recovered-panic *NumericalError, got %v", err)
	}
	if fault.Fired(fault.SiteParallelWorker) != 1 {
		t.Fatalf("site fired %d times, want exactly 1", fault.Fired(fault.SiteParallelWorker))
	}
	fault.Reset()

	fresh, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	for name, get := range map[string]func(*Dataset) ([]int, error){
		"Skyline":     (*Dataset).Skyline,
		"HappyPoints": (*Dataset).HappyPoints,
	} {
		got, err := get(ds)
		if err != nil {
			t.Fatalf("%s after the panic: %v", name, err)
		}
		want, err := get(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after the panic: %d indices, fresh dataset %d", name, len(got), len(want))
		}
	}
	got, err := ds.Query(10)
	if err != nil {
		t.Fatalf("Query after the panic: %v", err)
	}
	want, err := fresh.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Query after the panic = %+v, fresh dataset %+v", got, want)
	}
}

// TestEngineParallelWorkerPanicDegrades: the site armed forever kills
// every parallel solver stage — Greedy and its perturbed retry both
// fan out their LP sweeps and panic — and the engine-served query
// lands on Cube (whose arithmetic never enters a parallel region),
// degraded but answered. The engine's per-query width (GOMAXPROCS 4
// over one pool worker), not a per-call option, is what switches the
// solver onto the fan-out path.
func TestEngineParallelWorkerPanicDegrades(t *testing.T) {
	armed(t)
	ds := parallelFaultDataset(t)
	setGOMAXPROCS(t, 4)
	eng, err := NewEngine(ds, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	fault.Arm(fault.SiteParallelWorker, -1)
	ans, err := eng.Query(context.Background(), 5, WithAlgorithm(AlgoGreedy), WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("query failed outright instead of degrading: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoCube {
		t.Fatalf("want degraded Cube answer, got %+v", ans)
	}
	for _, stage := range []string{"Greedy:", "Greedy (perturbed):"} {
		if !strings.Contains(ans.FallbackReason, stage) {
			t.Fatalf("reason %q does not record the %s failure", ans.FallbackReason, stage)
		}
	}
	// One injected worker panic per parallel stage of the chain: both
	// failures above must be the site's, and it must have fired for
	// each.
	const parallelStages = 2
	if n := strings.Count(ans.FallbackReason, "injected panic in parallel worker"); n != parallelStages {
		t.Fatalf("reason %q records %d worker panics, want %d", ans.FallbackReason, n, parallelStages)
	}
	if fault.Fired(fault.SiteParallelWorker) < parallelStages {
		t.Fatalf("site fired only %d times; chain skipped parallel stages",
			fault.Fired(fault.SiteParallelWorker))
	}
	if ans.MRR < 0 || ans.MRR > 1 {
		t.Fatalf("degraded answer has MRR %v", ans.MRR)
	}

	// Storm over: the same engine answers cleanly again.
	fault.Reset()
	ans, err = eng.Query(context.Background(), 5, WithAlgorithm(AlgoGreedy), WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded {
		t.Fatalf("post-storm query still degraded: %s", ans.FallbackReason)
	}
}

// TestParallelWorkerSiteInertSequential: with the exact sequential
// path (GOMAXPROCS 1) the armed site must never fire, not even in the
// LP sweep that splits at width 4 — the fault hook lives only in the
// concurrent worker loop, so sequential queries cannot pay for it
// even under the fault build tag.
func TestParallelWorkerSiteInertSequential(t *testing.T) {
	armed(t)
	ds := parallelFaultDataset(t)
	setGOMAXPROCS(t, 1)
	fault.Arm(fault.SiteParallelWorker, -1)
	ans, err := ds.Query(5, WithAlgorithm(AlgoGreedy), WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded {
		t.Fatalf("sequential query degraded: %s", ans.FallbackReason)
	}
	if got := fault.Fired(fault.SiteParallelWorker); got != 0 {
		t.Fatalf("site fired %d times on the sequential path", got)
	}
}
