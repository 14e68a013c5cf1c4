//go:build kregretfault

// NaN-position sweep for GeoGreedy: a NaN critical ratio injected at
// ANY support evaluation — initial scan, post-insertion relocation,
// including the final relocation pass whose values are only ever read
// by the regret evaluation — must surface as ErrDegenerate, never as
// a silently wrong answer. Before the parallel reduction unified the
// argmax and currentMRR folds, a NaN produced by the very last
// insertion's relocation was dropped by the IsNaN guard in the regret
// fold; this sweep pins the fix for both the sequential and the
// parallel path.
package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
)

func TestGeoGreedyNaNSweepAlwaysDegenerate(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	// n=600 is above two relocation grains of the fault build (2·256),
	// so the workers=4 half of the sweep runs the relocation pass on
	// spawned workers; at n=120 every pass ran inline at both widths.
	pts := antiCorrelated(rand.New(rand.NewSource(17)), 600, 3)
	const k = 7

	// Prove that claim on a clean run: the worker site fires only
	// inside a spawned chunk loop, never on the inline path.
	fault.Observe(fault.SiteParallelWorker)
	if _, err := GeoGreedyParCtx(ctx, pts, k, 4); err != nil {
		t.Fatalf("clean workers=4 run: %v", err)
	}
	if fault.Fired(fault.SiteParallelWorker) == 0 {
		t.Fatalf("workers=4 never left the inline path at n=%d", len(pts))
	}
	fault.Reset()

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
	// to the clean one up to the injection (workers=1), so every
	// skip < total is guaranteed to reach the armed site; with
	// workers=4 the per-phase evaluation counts are the same, only
	// the interleaving differs, so the site still fires and the NaN
	// must still poison whichever reduction reads it.
	for _, workers := range []int{1, 4} {
		for skip := 0; skip < total; skip++ {
			fault.Reset()
			fault.ArmAfter(fault.SiteGeoGreedySupport, skip, 1)
			res, err := GeoGreedyParCtx(ctx, pts, k, workers)
			if fault.Fired(fault.SiteGeoGreedySupport) == 0 {
				// The parallel run finished before reaching this
				// position (it errored out of an earlier phase on a
				// previous NaN — impossible with a single shot — or
				// evaluated fewer sites, which would be a real bug).
				t.Fatalf("workers=%d skip=%d: armed site never fired", workers, skip)
			}
			if err == nil {
				t.Fatalf("workers=%d skip=%d: NaN swallowed, got %v mrr=%g",
					workers, skip, res.Indices, res.MRR)
			}
			if !errors.Is(err, ErrDegenerate) {
				t.Fatalf("workers=%d skip=%d: error %v is not ErrDegenerate", workers, skip, err)
			}
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
