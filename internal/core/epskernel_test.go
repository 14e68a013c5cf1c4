package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestEpsKernelRejectsBadEps(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := randomNormalized(rng, 20, 3)
	for _, eps := range []float64{math.NaN(), -0.01, 1, 1.5} {
		if _, err := EpsKernelParCtx(context.Background(), pts, eps, nil, 1); !errors.Is(err, ErrBadEps) {
			t.Fatalf("eps=%v: got %v, want ErrBadEps", eps, err)
		}
	}
}

// TestEpsKernelZeroIsExact pins the degenerate case eps = 0: the
// greedy runs to the usual unit-support stop, so the kernel covers the
// convex boundary exactly and its measured regret against the full set
// is zero (up to geometric tolerance).
func TestEpsKernelZeroIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := antiCorrelated(rng, 300, 3)
	res, err := EpsKernelParCtx(context.Background(), pts, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR > geom.Eps {
		t.Fatalf("eps=0 kernel reports MRR %v", res.MRR)
	}
	mrr, err := evalMRR(pts, res.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if mrr > 1e-9 {
		t.Fatalf("eps=0 kernel has independent MRR %v", mrr)
	}
}

// TestEpsKernelBoundHolds is the core guarantee: for every eps the
// returned subset's maximum regret ratio against the full point set,
// re-measured by the independent geometric evaluator, stays within eps.
func TestEpsKernelBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, d := range []int{2, 3, 4} {
		pts := antiCorrelated(rng, 400, d)
		for _, eps := range []float64{0.02, 0.1, 0.3} {
			res, err := EpsKernelParCtx(context.Background(), pts, eps, nil, 2)
			if err != nil {
				t.Fatalf("d=%d eps=%v: %v", d, eps, err)
			}
			if res.MRR > eps+geom.Eps {
				t.Fatalf("d=%d eps=%v: kernel reports MRR %v", d, eps, res.MRR)
			}
			mrr, err := evalMRR(pts, res.Indices)
			if err != nil {
				t.Fatal(err)
			}
			if mrr > eps+1e-9 {
				t.Fatalf("d=%d eps=%v: independent MRR %v exceeds bound", d, eps, mrr)
			}
		}
	}
}

// TestEpsKernelMonotoneInEps: the greedy adds candidates in an
// eps-independent order and only the stop threshold moves, so a looser
// eps must select a prefix of a tighter eps's kernel.
func TestEpsKernelMonotoneInEps(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := antiCorrelated(rng, 500, 3)
	prev := -1
	for _, eps := range []float64{0.3, 0.1, 0.02, 0} {
		res, err := EpsKernelParCtx(context.Background(), pts, eps, nil, 1)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if prev >= 0 && len(res.Indices) < prev {
			t.Fatalf("tightening eps to %v shrank the kernel: %d < %d", eps, len(res.Indices), prev)
		}
		prev = len(res.Indices)
	}
}

func TestEpsKernelExtraSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := antiCorrelated(rng, 120, 3)
	// Out-of-range seeds are a caller bug, reported as ErrBadSubset.
	if _, err := EpsKernelParCtx(context.Background(), pts, 0.1, []int{len(pts)}, 1); !errors.Is(err, ErrBadSubset) {
		t.Fatalf("out-of-range seed: %v", err)
	}
	if _, err := EpsKernelParCtx(context.Background(), pts, 0.1, []int{-1}, 1); !errors.Is(err, ErrBadSubset) {
		t.Fatalf("negative seed: %v", err)
	}
	// Valid seeds appear in the kernel, and seeding cannot weaken the
	// bound.
	seeds := []int{0, 7, 42}
	res, err := EpsKernelParCtx(context.Background(), pts, 0.15, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[int]bool, len(res.Indices))
	for _, i := range res.Indices {
		have[i] = true
	}
	for _, s := range seeds {
		if !have[s] {
			t.Fatalf("seed %d missing from kernel %v", s, res.Indices)
		}
	}
	if res.MRR > 0.15+geom.Eps {
		t.Fatalf("seeded kernel MRR %v", res.MRR)
	}
}
