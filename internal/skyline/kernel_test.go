package skyline

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

var kernelGens = []struct {
	name string
	fn   func(n, d int, seed int64) ([]geom.Vector, error)
}{
	{"independent", dataset.Independent},
	{"correlated", dataset.Correlated},
	{"anticorrelated", dataset.AntiCorrelated},
}

func equalInts(t *testing.T, ctxt string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: |%d| vs |%d|\ngot  %v\nwant %v", ctxt, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", ctxt, i, got[i], want[i])
		}
	}
}

// TestKernelMatchesReferences pins the blocked kernel against the
// brute-force oracle across dimensions, distributions, and sizes
// spanning the rebuild schedule (several rebuilds at n=3000 for
// anti-correlated data).
func TestKernelMatchesReferences(t *testing.T) {
	for _, g := range kernelGens {
		for d := 2; d <= 6; d++ {
			for _, n := range []int{50, 700, 3000} {
				pts, err := g.fn(n, d, int64(n*d))
				if err != nil {
					t.Fatal(err)
				}
				got, err := Of(pts)
				if err != nil {
					t.Fatal(err)
				}
				equalInts(t, g.name, got, brute(pts))
			}
		}
	}
}

// TestKernelSumTieExactness is the adversarial float case the window's
// tombstone map exists for: a dominated point whose float64 coordinate
// sum TIES its dominator's, arriving first in the stable
// descending-sum order. A plain SFS-style window would admit it and
// never evict; the kernel must not leak it. Exercises both the generic
// and the d=4 specialized paths.
func TestKernelSumTieExactness(t *testing.T) {
	big := math.Ldexp(1, 53) // ulp = 2: adding 0.25 or 0.5 both round away
	cases := [][]geom.Vector{
		{
			{big, 0.25}, // dominated, same fl sum, lower index
			{big, 0.5},  // dominator
			{1, 1},
		},
		{
			{big, 1, 1, 0.25},
			{big, 1, 1, 0.5},
			{1, 1, 1, 1},
		},
	}
	for ci, pts := range cases {
		sa, sb := pts[0].Sum(), pts[1].Sum()
		if math.Float64bits(sa) != math.Float64bits(sb) {
			t.Fatalf("case %d: sums not tied (%v vs %v) — construction broken", ci, sa, sb)
		}
		if !geom.Dominates(pts[1], pts[0]) {
			t.Fatalf("case %d: construction broken, no dominance", ci)
		}
		got, err := exactPass(nil, geom.Flatten(pts), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		equalInts(t, "sum-tie", got, brute(pts))
	}
}

// TestKernelDuplicatesRetained: exact duplicates tie on sum and
// dominate nobody — all copies must survive, same as the scalar
// algorithms guarantee.
func TestKernelDuplicatesRetained(t *testing.T) {
	pts := []geom.Vector{
		{0.9, 0.1}, {0.5, 0.5}, {0.9, 0.1}, {0.2, 0.3}, {0.5, 0.5},
	}
	got, err := exactPass(nil, geom.Flatten(pts), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	equalInts(t, "duplicates", got, []int{0, 1, 2, 4})
}

// TestKernelIndexedSubset: the gather form must equal the kernel run
// on the copied-out subset, with original indices preserved.
func TestKernelIndexedSubset(t *testing.T) {
	pts, err := dataset.Independent(400, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	subset := make([]int, 0, 200)
	for i := 0; i < len(pts); i += 2 {
		subset = append(subset, i)
	}
	got, err := exactPass(nil, geom.Flatten(pts), subset, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := make([]geom.Vector, len(subset))
	for k, i := range subset {
		sub[k] = pts[i]
	}
	want := brute(sub)
	for i := range want {
		want[i] = subset[want[i]]
	}
	equalInts(t, "indexed", got, want)
	if empty, err := exactPass(nil, geom.Flatten(pts), []int{}, 0); err != nil || empty != nil {
		t.Fatalf("empty subset: %v, %v", empty, err)
	}
}

// TestParallelKernelMatchesSequential: OfRows, and ComputeParallel at
// every workers argument, return the exact kernel's skyline on all
// three distributions.
func TestParallelKernelMatchesSequential(t *testing.T) {
	for _, g := range kernelGens {
		pts, err := g.fn(4000, 4, 77)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exactPass(nil, geom.Flatten(pts), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OfRows(context.Background(), geom.Flatten(pts))
		if err != nil {
			t.Fatal(err)
		}
		equalInts(t, g.name, got, want)
		for _, w := range []int{2, 4, 8} {
			got, err := ComputeParallel(pts, w)
			if err != nil {
				t.Fatal(err)
			}
			equalInts(t, g.name, got, want)
		}
	}
}

// TestParallelKernelCanceled: a canceled context fails the pass, and
// so does one canceled while the pass runs.
func TestParallelKernelCanceled(t *testing.T) {
	pts, err := dataset.Independent(4000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OfRows(ctx, geom.Flatten(pts)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v, want context.Canceled", err)
	}
	// A context that ends after the first check: the pass must notice
	// at a later one.
	rows := make([]float64, 3*(2*cancelEvery+1))
	orig := make([]int32, 2*cancelEvery+1)
	for i := range orig {
		rows[3*i], rows[3*i+1], rows[3*i+2] = 1, 1, 1
		orig[i] = int32(i)
	}
	checks := 0
	late := func() error {
		if checks++; checks > 1 {
			return context.Canceled
		}
		return nil
	}
	if _, err := probePass(late, rows, orig, 3, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("context canceled mid-pass: err = %v, want context.Canceled", err)
	}
}

// TestKernelAlgorithmRegistered: the public entry Of dispatches to the
// kernel.
func TestKernelAlgorithmRegistered(t *testing.T) {
	pts := []geom.Vector{{0.9, 0.1}, {0.1, 0.9}, {0.8, 0.05}}
	got, err := Of(pts)
	if err != nil {
		t.Fatal(err)
	}
	equalInts(t, "Of", got, []int{0, 1})
	pts, err = dataset.AntiCorrelated(1000, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = Of(pts); err != nil {
		t.Fatal(err)
	}
	want, err := exactPass(nil, geom.Flatten(pts), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	equalInts(t, "Of vs kernel", got, want)
}
