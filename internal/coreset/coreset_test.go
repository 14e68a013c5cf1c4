package coreset

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
)

// antiCorrelated mirrors the generator the core tests use: points near
// the simplex Σx = 1, which makes large skylines and non-trivial hulls.
func antiCorrelated(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		var sum float64
		for j := range p {
			p[j] = 0.05 + rng.ExpFloat64()
			sum += p[j]
		}
		scale := (0.8 + 0.4*rng.Float64()) / sum
		for j := range p {
			p[j] = math.Min(1, math.Max(0.01, p[j]*scale))
		}
		pts[i] = p
	}
	return pts
}

// happySet computes the paper's candidate set (skyline → happy) the
// same way package kregret feeds Build.
func happySet(t *testing.T, pts []geom.Vector) []int {
	t.Helper()
	sky, err := skyline.Of(pts)
	if err != nil {
		t.Fatal(err)
	}
	return happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
}

func TestBuildDisabledCopiesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pts := antiCorrelated(rng, 50, 3)
	cand := happySet(t, pts)
	out, mrr, err := Build(context.Background(), pts, cand, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mrr != 0 {
		t.Fatalf("disabled build reports MRR %v", mrr)
	}
	if len(out) != len(cand) {
		t.Fatalf("disabled build returned %d of %d candidates", len(out), len(cand))
	}
	for i := range out {
		if out[i] != cand[i] {
			t.Fatalf("disabled build reordered candidates: %v vs %v", out, cand)
		}
	}
	// The result must not alias the caller's slice.
	out[0] = -1
	if cand[0] == -1 {
		t.Fatal("Build aliases its cand argument")
	}
	// Empty candidate sets are legal (degenerate shard).
	empty, mrr, err := Build(context.Background(), pts, nil, 0.1, 1)
	if err != nil || len(empty) != 0 || mrr != 0 {
		t.Fatalf("empty cand: %v %v %v", empty, mrr, err)
	}
}

func TestBuildRejectsBadEps(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pts := antiCorrelated(rng, 30, 3)
	cand := happySet(t, pts)
	for _, eps := range []float64{math.NaN(), 1, 2} {
		if _, _, err := Build(context.Background(), pts, cand, eps, 1); !errors.Is(err, core.ErrBadEps) {
			t.Fatalf("eps=%v: got %v, want ErrBadEps", eps, err)
		}
	}
}

// TestBuildKernelBound is the package's contract: the returned core is
// an ascending subset of cand whose independently re-measured regret
// against the candidate set stays within eps, for every worker count.
func TestBuildKernelBound(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, d := range []int{2, 3, 4} {
		pts := antiCorrelated(rng, 600, d)
		cand := happySet(t, pts)
		for _, eps := range []float64{0.05, 0.2} {
			for _, w := range []int{1, 4} {
				out, mrr, err := Build(context.Background(), pts, cand, eps, w)
				if err != nil {
					t.Fatalf("d=%d eps=%v w=%d: %v", d, eps, w, err)
				}
				if mrr > eps+geom.Eps {
					t.Fatalf("d=%d eps=%v w=%d: reported MRR %v", d, eps, w, mrr)
				}
				if !sort.IntsAreSorted(out) {
					t.Fatalf("core not ascending: %v", out)
				}
				inCand := make(map[int]bool, len(cand))
				for _, c := range cand {
					inCand[c] = true
				}
				for _, c := range out {
					if !inCand[c] {
						t.Fatalf("core index %d is not a candidate", c)
					}
				}
				// Independent verification: regret of the core against
				// the candidate subset, via the geometric evaluator.
				sub, err := core.Select(pts, cand)
				if err != nil {
					t.Fatal(err)
				}
				local := make(map[int]int, len(cand))
				for li, gi := range cand {
					local[gi] = li
				}
				sel := make([]int, len(out))
				for i, gi := range out {
					sel[i] = local[gi]
				}
				x, err := core.NewEvalIndex(sub)
				if err != nil {
					t.Fatal(err)
				}
				got, err := x.MRRGeometric(sel)
				if err != nil {
					t.Fatal(err)
				}
				if got > eps+1e-9 {
					t.Fatalf("d=%d eps=%v w=%d: independent MRR %v exceeds bound", d, eps, w, got)
				}
			}
		}
	}
}

// TestBuildSizeIndependentOfN: doubling n must not double the core —
// the size tracks the hull geometry, not the dataset. A loose factor-2
// slack keeps the assertion robust to the extra hull detail more
// points genuinely add.
func TestBuildSizeIndependentOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	sizes := make([]int, 0, 2)
	for _, n := range []int{1000, 4000} {
		pts := antiCorrelated(rng, n, 3)
		cand := happySet(t, pts)
		out, _, err := Build(context.Background(), pts, cand, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(out))
	}
	if sizes[1] > 2*sizes[0]+8 {
		t.Fatalf("core grew with n: %v", sizes)
	}
}

func TestDirectionNetInvariants(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 7} {
		dirs := directionNet(d, maxNetDirections)
		if len(dirs) == 0 || len(dirs) > maxNetDirections {
			t.Fatalf("d=%d: %d directions", d, len(dirs))
		}
		// Every direction is a nonnegative integer composition of the
		// same resolution r ≥ 1.
		r := 0.0
		for _, c := range dirs[0] {
			r += c
		}
		if r < 1 {
			t.Fatalf("d=%d: resolution %v", d, r)
		}
		seen := make(map[string]bool, len(dirs))
		for _, dir := range dirs {
			if len(dir) != d {
				t.Fatalf("d=%d: direction of dimension %d", d, len(dir))
			}
			sum, key := 0.0, ""
			for _, c := range dir {
				if c < 0 || c != math.Trunc(c) {
					t.Fatalf("d=%d: non-integer coordinate %v", d, c)
				}
				sum += c
				key += string(rune(int(c))) + ","
			}
			if sum != r {
				t.Fatalf("d=%d: direction %v sums to %v, want %v", d, dir, sum, r)
			}
			if seen[key] {
				t.Fatalf("d=%d: duplicate direction %v", d, dir)
			}
			seen[key] = true
		}
		// Exactly the composition count, and the next resolution must
		// not have fit.
		rInt := int(r)
		if len(dirs) != compositionCount(rInt, d) {
			t.Fatalf("d=%d: %d directions, composition count %d", d, len(dirs), compositionCount(rInt, d))
		}
		if d > 1 && compositionCount(rInt+1, d) <= maxNetDirections {
			t.Fatalf("d=%d: resolution %d is not maximal", d, rInt)
		}
	}
}

func TestCompositionCount(t *testing.T) {
	cases := []struct{ r, d, want int }{
		{1, 1, 1},
		{5, 1, 1},
		{3, 2, 4},     // C(4,1)
		{2, 3, 6},     // C(4,2)
		{4, 4, 35},    // C(7,3)
		{511, 2, 512}, // C(512,1)
	}
	for _, c := range cases {
		if got := compositionCount(c.r, c.d); got != c.want {
			t.Fatalf("compositionCount(%d,%d) = %d, want %d", c.r, c.d, got, c.want)
		}
	}
	// Overflowing resolutions saturate instead of wrapping.
	if got := compositionCount(1<<30, 8); got < 1<<39 {
		t.Fatalf("overflow did not saturate: %d", got)
	}
}

// TestNetSeedsOnSimplexCorners: with candidates at the axis corners
// plus an interior point, every direction's support is a corner, so the
// seeds are exactly the corners and never the interior point.
func TestNetSeedsOnSimplexCorners(t *testing.T) {
	pts := []geom.Vector{
		{1, 0.01, 0.01},
		{0.01, 1, 0.01},
		{0.01, 0.01, 1},
		{0.2, 0.2, 0.2}, // interior
	}
	seeds, err := netSeeds(context.Background(), pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 || len(seeds) > 3 {
		t.Fatalf("seeds %v", seeds)
	}
	for _, s := range seeds {
		if s == 3 {
			t.Fatalf("interior point seeded: %v", seeds)
		}
	}
}
