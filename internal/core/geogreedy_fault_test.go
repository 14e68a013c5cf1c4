//go:build kregretfault

// NaN-position sweep for GeoGreedy: a NaN critical ratio injected at
// ANY support evaluation — initial scan, post-insertion relocation,
// including the final relocation pass whose values are only ever read
// by the regret evaluation — must surface as ErrDegenerate, never as
// a silently wrong answer. Before the parallel reduction unified the
// argmax and currentMRR folds, a NaN produced by the very last
// insertion's relocation was dropped by the IsNaN guard in the regret
// fold; this sweep pins the fix. GeoGreedy's loop is sequential, so
// the parallel half of the sweep runs on Greedy's LP sweep, the
// solver pass that still fans out.
package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/lp"
)

func TestGeoGreedyNaNSweepAlwaysDegenerate(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	pts := antiCorrelated(rand.New(rand.NewSource(17)), 600, 3)
	const k = 7

	// Count the support evaluations of a clean run: Observe makes the
	// site tally fire() calls without corrupting anything.
	fault.Observe(fault.SiteGeoGreedySupport)
	ref, err := GeoGreedyParCtx(ctx, pts, k, 1)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := fault.Fired(fault.SiteGeoGreedySupport)
	if total < len(pts) {
		t.Fatalf("observed only %d support evaluations for n=%d", total, len(pts))
	}

	// Inject one NaN at every possible position. The run is identical
	// to the clean one up to the injection, so every skip < total is
	// guaranteed to reach the armed site.
	for skip := 0; skip < total; skip++ {
		fault.Reset()
		fault.ArmAfter(fault.SiteGeoGreedySupport, skip, 1)
		res, err := GeoGreedyParCtx(ctx, pts, k, 1)
		if fault.Fired(fault.SiteGeoGreedySupport) == 0 {
			t.Fatalf("skip=%d: armed site never fired", skip)
		}
		if err == nil {
			t.Fatalf("skip=%d: NaN swallowed, got %v mrr=%g", skip, res.Indices, res.MRR)
		}
		if !errors.Is(err, ErrDegenerate) {
			t.Fatalf("skip=%d: error %v is not ErrDegenerate", skip, err)
		}
	}

	// And a clean run after the sweep still matches the reference.
	fault.Reset()
	got, err := GeoGreedyParCtx(ctx, pts, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.MRR != ref.MRR {
		t.Fatalf("post-sweep MRR %.17g, want %.17g", got.MRR, ref.MRR)
	}
}

// TestGreedyLPFailureSweepParallel is the parallel half of the sweep:
// on 2,500 candidates (above two grainLP) Greedy's per-candidate LP
// sweep splits at workers=4, and a simplex failure injected at an LP
// solve anywhere in the run — on whichever worker claims it — must
// surface as the typed iteration-cap error, never as a silently wrong
// answer.
func TestGreedyLPFailureSweepParallel(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	pts := antiCorrelated(rand.New(rand.NewSource(17)), 2500, 3)
	const k, workers = 5, 4

	// Prove the split on a clean run: the worker site fires only
	// inside a spawned chunk loop, never on the inline path.
	fault.Observe(fault.SiteParallelWorker)
	ref, err := GreedyParCtx(ctx, pts, k, workers)
	if err != nil {
		t.Fatalf("clean workers=%d run: %v", workers, err)
	}
	if fault.Fired(fault.SiteParallelWorker) == 0 {
		t.Fatalf("workers=%d never left the inline path at n=%d", workers, len(pts))
	}
	fault.Reset()

	fault.Observe(fault.SiteLPIterationCap)
	if _, err := GreedyParCtx(ctx, pts, k, 1); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := fault.Fired(fault.SiteLPIterationCap)
	if total < len(pts) {
		t.Fatalf("observed only %d simplex runs for n=%d", total, len(pts))
	}

	// Every 31st position and the last, a stride that is not a
	// divisor of the chunk size, so every chunk of every sweep is hit
	// at varying offsets. The parallel run does the same solves in a
	// different interleaving, so the site still fires.
	for skip := 0; skip < total+30; skip += 31 {
		skip := min(skip, total-1)
		fault.Reset()
		fault.ArmAfter(fault.SiteLPIterationCap, skip, 1)
		res, err := GreedyParCtx(ctx, pts, k, workers)
		if fault.Fired(fault.SiteLPIterationCap) == 0 {
			t.Fatalf("skip=%d: armed site never fired", skip)
		}
		if err == nil {
			t.Fatalf("skip=%d: LP failure swallowed, got %v mrr=%g", skip, res.Indices, res.MRR)
		}
		if !errors.Is(err, lp.ErrIterationCap) || !IsNumerical(err) {
			t.Fatalf("skip=%d: error %v is not the numerical iteration-cap error", skip, err)
		}
	}

	// And a clean run after the sweep still matches the reference.
	fault.Reset()
	got, err := GreedyParCtx(ctx, pts, k, workers)
	if err != nil {
		t.Fatal(err)
	}
	if got.MRR != ref.MRR {
		t.Fatalf("post-sweep MRR %.17g, want %.17g", got.MRR, ref.MRR)
	}
}
