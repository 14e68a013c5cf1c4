package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestExact2DValidation(t *testing.T) {
	if _, err := Exact2D(nil, 2); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Exact2D([]geom.Vector{{1, 1, 1}}, 2); err != ErrNeed2D {
		t.Fatalf("3d: %v", err)
	}
	if _, err := Exact2D([]geom.Vector{{1, 1}}, 0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
}

func TestExact2DZeroRegretWhenHullFits(t *testing.T) {
	pts := []geom.Vector{{1, 0.1}, {0.1, 1}, {0.7, 0.7}, {0.4, 0.4}}
	res, err := Exact2D(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR > 1e-9 {
		t.Fatalf("mrr = %v, want 0 (all hull points fit)", res.MRR)
	}
}

// bruteForceOptimal2D enumerates all k-subsets of the happy points
// and returns the minimal exact regret.
func bruteForceOptimal2D(t *testing.T, pts []geom.Vector, k int) float64 {
	t.Helper()
	cand := happyIndices(pts)
	best := math.Inf(1)
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == k || start == len(cand) {
			if len(chosen) == 0 {
				return
			}
			mrr, err := evalMRR(pts, chosen)
			if err != nil {
				t.Fatal(err)
			}
			if mrr < best {
				best = mrr
			}
			return
		}
		rec(start+1, append(chosen, cand[start]))
		rec(start+1, chosen)
	}
	rec(0, nil)
	return best
}

// TestExact2DMatchesBruteForce: the binary-search cover solution must
// match exhaustive enumeration on small instances.
func TestExact2DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(8)
		pts := antiCorrelated(rng, n, 2)
		k := 2 + rng.Intn(3)
		res, err := Exact2D(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceOptimal2D(t, pts, k)
		if res.MRR > want+1e-6 {
			t.Fatalf("trial %d (n=%d k=%d): Exact2D mrr %v, brute force %v",
				trial, n, k, res.MRR, want)
		}
		// And it cannot beat the true optimum.
		if res.MRR < want-1e-6 {
			t.Fatalf("trial %d: Exact2D %v below brute-force optimum %v (bug in one of them)",
				trial, res.MRR, want)
		}
		if len(res.Indices) > k {
			t.Fatalf("trial %d: %d points for k=%d", trial, len(res.Indices), k)
		}
	}
}

// TestExact2DNeverWorseThanGeoGreedy: the optimal solution is at
// least as good as the greedy heuristic.
func TestExact2DNeverWorseThanGeoGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		pts := antiCorrelated(rng, 30+rng.Intn(50), 2)
		k := 2 + rng.Intn(6)
		exact, err := Exact2D(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GeoGreedy(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if exact.MRR > greedy.MRR+1e-6 {
			t.Fatalf("trial %d: exact %v worse than greedy %v", trial, exact.MRR, greedy.MRR)
		}
	}
}

// TestExact2DPaperGapExample: on configurations like the paper's
// Lemma 5 discussion, the optimal selection can include non-hull
// happy points; Exact2D must handle them.
func TestExact2DUsesHappyNonConvWhenOptimal(t *testing.T) {
	// Three hull extremes widely spread plus a happy point in the
	// middle that covers the gap better than any single extreme.
	pts := []geom.Vector{
		{1.00, 0.05},
		{0.05, 1.00},
		{0.78, 0.78}, // hull extreme
		{0.70, 0.86}, // happy, just below hull
		{0.86, 0.70}, // happy, just below hull
	}
	res, err := Exact2D(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := GeoGreedy(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR > grd.MRR+1e-9 {
		t.Fatalf("exact %v worse than greedy %v", res.MRR, grd.MRR)
	}
}

func TestAverageGreedyBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := antiCorrelated(rng, 80, 3)
	res, err := AverageGreedy(pts, 6, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 6 {
		t.Fatalf("selected %d", len(res.Indices))
	}
	if res.MRR < 0 || res.MRR > 1 {
		t.Fatalf("average regret %v", res.MRR)
	}
	// The average-regret greedy should achieve average regret no
	// worse than (about) the max-regret greedy's average regret.
	geo, err := GeoGreedy(pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, avgOfGeo, err := sampledRegret(pts, geo.Indices, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR > avgOfGeo+0.02 {
		t.Fatalf("average greedy %v much worse than geo greedy's average %v", res.MRR, avgOfGeo)
	}
}

func TestAverageGreedyValidation(t *testing.T) {
	if _, err := AverageGreedy(nil, 3, 10, 1); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	if _, err := AverageGreedy([]geom.Vector{{1, 1}}, 0, 10, 1); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := AverageGreedy([]geom.Vector{{1, 1}}, 1, 0, 1); err == nil {
		t.Fatal("0 samples accepted")
	}
}

func TestAverageGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := antiCorrelated(rng, 50, 3)
	a, err := AverageGreedy(pts, 5, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AverageGreedy(pts, 5, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Indices) != len(b.Indices) {
		t.Fatal("non-deterministic size")
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("non-deterministic selection")
		}
	}
}
