//go:build kregretfault

// Fault-injection tests for intra-query parallelism: a panic inside a
// parallel.For worker goroutine must be recaptured, re-raised on the
// query goroutine, converted by the runSolver panic boundary into a
// typed *NumericalError, and from there either surfaced (without
// fallback) or absorbed by the degradation chain — exactly like a
// panic on the sequential path. The dataset is large enough
// (n > 2×grain) that the solver scans genuinely split into multiple
// chunks; at GOMAXPROCS 1 the same site must be inert.
package kregret

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// parallelFaultDataset is faultDataset scaled up past every fan-out
// threshold (`n < 2·grain` runs inline): GeoGreedy's support scan
// chunks at a 256-index grain and Greedy's LP sweep at 1024, so 2500
// points split every solver stage into ≥ 2 chunks and the worker
// loop — where SiteParallelWorker fires — actually runs in each.
func parallelFaultDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(testPoints(2500, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestParallelWorkerPanicTyped: one armed shot, no fallback — the
// worker panic surfaces as a *NumericalError carrying the original
// panic value.
func TestParallelWorkerPanicTyped(t *testing.T) {
	armed(t)
	ds := parallelFaultDataset(t)
	setGOMAXPROCS(t, 4)
	fault.Arm(fault.SiteParallelWorker, 1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll), WithoutFallback())
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

// TestEngineParallelWorkerPanicDegrades: the site armed forever kills
// every parallel solver stage — GeoGreedy, its perturbed retry, and
// Greedy all fan out and panic — and the engine-served query lands on
// Cube (whose arithmetic never enters a parallel region), degraded
// but answered. The engine's per-query width (GOMAXPROCS 4 over one
// pool worker), not a per-call option, is what switches the solvers
// onto the fan-out path.
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
	ans, err := eng.Query(context.Background(), 5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatalf("query failed outright instead of degrading: %v", err)
	}
	if !ans.Degraded || ans.Algorithm != AlgoCube {
		t.Fatalf("want degraded Cube answer, got %+v", ans)
	}
	for _, stage := range []string{"GeoGreedy", "Greedy"} {
		if !strings.Contains(ans.FallbackReason, stage) {
			t.Fatalf("reason %q does not record the %s failure", ans.FallbackReason, stage)
		}
	}
	if fault.Fired(fault.SiteParallelWorker) < 3 {
		t.Fatalf("site fired only %d times; chain skipped parallel stages",
			fault.Fired(fault.SiteParallelWorker))
	}
	if ans.MRR < 0 || ans.MRR > 1 {
		t.Fatalf("degraded answer has MRR %v", ans.MRR)
	}

	// Storm over: the same engine answers cleanly again.
	fault.Reset()
	ans, err = eng.Query(context.Background(), 5, WithCandidates(CandidatesAll))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded {
		t.Fatalf("post-storm query still degraded: %s", ans.FallbackReason)
	}
}

// TestParallelWorkerSiteInertSequential: with the exact sequential
// path (GOMAXPROCS 1) the armed site must never fire — the
// fault hook lives only in the concurrent worker loop, so sequential
// queries cannot pay for it even under the fault build tag.
func TestParallelWorkerSiteInertSequential(t *testing.T) {
	armed(t)
	ds := parallelFaultDataset(t)
	setGOMAXPROCS(t, 1)
	fault.Arm(fault.SiteParallelWorker, -1)
	ans, err := ds.Query(5, WithCandidates(CandidatesAll))
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
