package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Differential tests: every Par entry point must return answers that
// are byte-identical to the sequential (workers=1) path — same
// selection indices in the same order, bitwise-equal regret ratios,
// same exhaustion point — for every worker count, dimension and data
// distribution. This is the determinism contract of
// internal/parallel; on a single-core CI box only explicit worker
// counts exercise the concurrent code path, so the counts below are
// passed explicitly rather than derived from GOMAXPROCS.

// diffWorkers are the parallel worker counts compared against the
// sequential baseline. 4 exceeds the chunk count of small inputs
// (exercising the worker cap) and 7 is deliberately not a power of
// two (uneven chunk boundaries).
var diffWorkers = []int{4, 7}

// diffFamilies builds the three distributions of the paper's
// synthetic benchmark at a fixed seed.
func diffFamilies(t *testing.T, n, d int, seed int64) map[string][]geom.Vector {
	t.Helper()
	out := make(map[string][]geom.Vector, 3)
	for name, gen := range map[string]func(int, int, int64) ([]geom.Vector, error){
		"independent":    dataset.Independent,
		"correlated":     dataset.Correlated,
		"anticorrelated": dataset.AntiCorrelated,
	} {
		pts, err := gen(n, d, seed)
		if err != nil {
			t.Fatalf("%s(n=%d d=%d): %v", name, n, d, err)
		}
		out[name] = pts
	}
	return out
}

// diffSize picks a dataset size that keeps the d-dimensional dual
// hull affordable: hull complexity grows sharply with d.
func diffSize(d int) int {
	switch {
	case d <= 3:
		return 3000
	case d == 4:
		return 1500
	case d == 5:
		return 500
	default:
		return 250
	}
}

func TestGeoGreedyParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for d := 2; d <= 6; d++ {
		n := diffSize(d)
		for name, pts := range diffFamilies(t, n, d, int64(100+d)) {
			k := d + 5
			ref, err := GeoGreedyParCtx(ctx, pts, k, 1)
			if err != nil {
				t.Fatalf("%s d=%d sequential: %v", name, d, err)
			}
			for _, w := range diffWorkers {
				got, err := GeoGreedyParCtx(ctx, pts, k, w)
				if err != nil {
					t.Fatalf("%s d=%d workers=%d: %v", name, d, w, err)
				}
				if !reflect.DeepEqual(got.Indices, ref.Indices) {
					t.Errorf("%s d=%d workers=%d: indices %v, want %v",
						name, d, w, got.Indices, ref.Indices)
				}
				if got.MRR != ref.MRR {
					t.Errorf("%s d=%d workers=%d: MRR %.17g, want %.17g",
						name, d, w, got.MRR, ref.MRR)
				}
				if got.ExhaustedAt != ref.ExhaustedAt {
					t.Errorf("%s d=%d workers=%d: ExhaustedAt %d, want %d",
						name, d, w, got.ExhaustedAt, ref.ExhaustedAt)
				}
			}
		}
	}
}

// TestGeoGreedyParallelLarge is the at-scale determinism check:
// 50k anti-correlated points, where the chunked fan-out genuinely
// splits work across many chunks per phase.
func TestGeoGreedyParallelLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential run skipped in -short")
	}
	ctx := context.Background()
	pts, err := dataset.AntiCorrelated(50000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	const k = 12
	ref, err := GeoGreedyParCtx(ctx, pts, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		got, err := GeoGreedyParCtx(ctx, pts, k, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got.Indices, ref.Indices) || got.MRR != ref.MRR ||
			got.ExhaustedAt != ref.ExhaustedAt {
			t.Fatalf("workers=%d diverged: got {%v %.17g %d}, want {%v %.17g %d}",
				w, got.Indices, got.MRR, got.ExhaustedAt,
				ref.Indices, ref.MRR, ref.ExhaustedAt)
		}
	}
}

// TestGeoGreedyParallelExhaustion hits the early-exhaustion path
// (k larger than the convex-hull population) under parallel scans: a
// correlated distribution has a tiny upper hull, so the candidate
// pool dries up well before the budget.
func TestGeoGreedyParallelExhaustion(t *testing.T) {
	ctx := context.Background()
	pts, err := dataset.Correlated(800, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	const k = 200
	ref, err := GeoGreedyParCtx(ctx, pts, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ExhaustedAt < 0 {
		t.Skipf("distribution did not exhaust at k=%d; pick a smaller hull", k)
	}
	for _, w := range diffWorkers {
		got, err := GeoGreedyParCtx(ctx, pts, k, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got.Indices, ref.Indices) || got.MRR != ref.MRR ||
			got.ExhaustedAt != ref.ExhaustedAt {
			t.Fatalf("workers=%d diverged on exhaustion: got {%v %.17g %d}, want {%v %.17g %d}",
				w, got.Indices, got.MRR, got.ExhaustedAt,
				ref.Indices, ref.MRR, ref.ExhaustedAt)
		}
	}
}

func TestGreedyParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	check := func(label string, pts []geom.Vector, k int) {
		t.Helper()
		ref, err := GreedyParCtx(ctx, pts, k, 1)
		if err != nil {
			t.Fatalf("%s sequential: %v", label, err)
		}
		for _, w := range diffWorkers {
			got, err := GreedyParCtx(ctx, pts, k, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, w, err)
			}
			if !reflect.DeepEqual(got.Indices, ref.Indices) {
				t.Errorf("%s workers=%d: indices %v, want %v",
					label, w, got.Indices, ref.Indices)
			}
			if got.MRR != ref.MRR {
				t.Errorf("%s workers=%d: MRR %.17g, want %.17g",
					label, w, got.MRR, ref.MRR)
			}
			if got.ExhaustedAt != ref.ExhaustedAt {
				t.Errorf("%s workers=%d: ExhaustedAt %d, want %d",
					label, w, got.ExhaustedAt, ref.ExhaustedAt)
			}
		}
	}
	for d := 2; d <= 4; d++ {
		for name, pts := range diffFamilies(t, 150, d, int64(40+d)) {
			check(fmt.Sprintf("%s d=%d", name, d), pts, d+3)
		}
	}

	// The families above are below the fan-out cutoff of 2·grainLP
	// candidates, so their LP sweeps run inline. This one is above it:
	// its sweeps run in concurrent chunks, each solving on its own
	// lp.Solver, so under -race a Solver shared across chunks fails
	// here.
	pts, err := dataset.AntiCorrelated(2100, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2*grainLP {
		t.Fatalf("%d points do not reach the cutoff of %d", len(pts), 2*grainLP)
	}
	check("anticorrelated n=2100 d=3", pts, 5)
}

func TestEvaluatorsParallelMatchSequential(t *testing.T) {
	ctx := context.Background()
	for d := 2; d <= 5; d++ {
		for name, pts := range diffFamilies(t, 800, d, int64(9000+d)) {
			res, err := GeoGreedyParCtx(ctx, pts, d+4, 1)
			if err != nil {
				t.Fatalf("%s d=%d selection: %v", name, d, err)
			}
			sel := res.Indices
			x, err := NewEvalIndex(pts)
			if err != nil {
				t.Fatal(err)
			}

			refG, err := x.MRRGeometricParCtx(ctx, sel, 1)
			if err != nil {
				t.Fatalf("%s d=%d geometric sequential: %v", name, d, err)
			}
			refS, refA, err := x.SampledRegretParCtx(ctx, sel, 300, 5, 1)
			if err != nil {
				t.Fatalf("%s d=%d sampled sequential: %v", name, d, err)
			}
			for _, w := range diffWorkers {
				if got, err := x.MRRGeometricParCtx(ctx, sel, w); err != nil || got != refG {
					t.Errorf("%s d=%d workers=%d geometric: (%.17g, %v), want (%.17g, nil)",
						name, d, w, got, err, refG)
				}
				gotS, gotA, err := x.SampledRegretParCtx(ctx, sel, 300, 5, w)
				if err != nil || gotS != refS {
					t.Errorf("%s d=%d workers=%d sampled: (%.17g, %v), want (%.17g, nil)",
						name, d, w, gotS, err, refS)
				}
				if err != nil || gotA != refA {
					t.Errorf("%s d=%d workers=%d average: (%.17g, %v), want (%.17g, nil)",
						name, d, w, gotA, err, refA)
				}
			}
		}
	}
}

func TestStoredListParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	pts, err := dataset.AntiCorrelated(1200, 4, 33)
	if err != nil {
		t.Fatal(err)
	}
	const maxLen = 10
	ref, err := BuildStoredListUpToParCtx(ctx, pts, maxLen, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diffWorkers {
		got, err := BuildStoredListUpToParCtx(ctx, pts, maxLen, w, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.Len() != ref.Len() {
			t.Fatalf("workers=%d: list length %d, want %d", w, got.Len(), ref.Len())
		}
		for k := 1; k <= ref.Len(); k++ {
			refSel, err := ref.Query(k)
			if err != nil {
				t.Fatal(err)
			}
			gotSel, err := got.Query(k)
			if err != nil {
				t.Fatalf("workers=%d k=%d: %v", w, k, err)
			}
			if !reflect.DeepEqual(gotSel, refSel) {
				t.Errorf("workers=%d k=%d: prefix %v, want %v", w, k, gotSel, refSel)
			}
			refMRR, err := ref.MRRFor(k)
			if err != nil {
				t.Fatal(err)
			}
			gotMRR, err := got.MRRFor(k)
			if err != nil {
				t.Fatalf("workers=%d k=%d: %v", w, k, err)
			}
			if gotMRR != refMRR {
				t.Errorf("workers=%d k=%d: MRR %.17g, want %.17g", w, k, gotMRR, refMRR)
			}
		}
	}
}
