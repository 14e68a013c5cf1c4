package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/hull2d"
	"repro/internal/skyline"
)

func TestConvexHullPointsSmall(t *testing.T) {
	pts := []geom.Vector{
		{1.00, 0.10}, // 0: extreme (max dim 1)
		{0.10, 1.00}, // 1: extreme (max dim 2)
		{0.70, 0.70}, // 2: extreme (above the 0–1 chord)
		{0.52, 0.52}, // 3: inside the hull
		{0.30, 0.30}, // 4: dominated
	}
	got, err := ConvexHullPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("ConvexHullPoints = %v, want [0 1 2]", got)
	}
}

func TestConvexHullPointsOnFaceNotVertex(t *testing.T) {
	// Point 2 lies exactly on the segment between 0 and 1 — on a
	// face but not an extreme point.
	pts := []geom.Vector{
		{1.00, 0.20},
		{0.20, 1.00},
		{0.60, 0.60},
	}
	got, err := ConvexHullPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("ConvexHullPoints = %v, want [0 1]", got)
	}
}

func TestConvexHullPointsDuplicates(t *testing.T) {
	// Exact duplicates of an extreme point: both reported.
	pts := []geom.Vector{
		{1.00, 0.20},
		{1.00, 0.20},
		{0.20, 1.00},
	}
	got, err := ConvexHullPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("ConvexHullPoints with duplicates = %v", got)
	}
}

// TestLemma3Relationship: D_conv ⊆ D_happy ⊆ D_sky on random data.
func TestLemma3Relationship(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(4)
		n := 30 + rng.Intn(120)
		pts := antiCorrelated(rng, n, d)
		sky, err := skyline.Of(pts)
		if err != nil {
			t.Fatal(err)
		}
		hp := happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
		conv, err := ConvexAmongHappy(pts, hp)
		if err != nil {
			t.Fatal(err)
		}
		inSky := toSet(sky)
		inHappy := toSet(hp)
		for _, i := range hp {
			if !inSky[i] {
				t.Fatalf("trial %d: happy %d ∉ sky", trial, i)
			}
		}
		for _, i := range conv {
			if !inHappy[i] {
				t.Fatalf("trial %d: conv %d ∉ happy", trial, i)
			}
		}
		if len(conv) > len(hp) || len(hp) > len(sky) {
			t.Fatalf("trial %d: sizes %d/%d/%d violate Lemma 3", trial, len(conv), len(hp), len(sky))
		}
	}
}

// TestConvMatches2DHull: in two dimensions the extreme points must be
// exactly the upper-right chain of the planar orthotope hull.
func TestConvMatches2DHull(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		pts := antiCorrelated(rng, n, 2)
		conv, err := ConvexHullPoints(pts)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := hull2d.FromVectors(pts)
		if err != nil {
			t.Fatal(err)
		}
		chain := hull2d.UpperRightChain(p2)
		// Match chain points back to indices (coordinates are
		// continuous so exact-match is safe; duplicates would match
		// multiple indices, handled by comparing multisets of
		// coordinates instead).
		if len(chain) != len(conv) {
			t.Fatalf("trial %d: conv size %d vs 2-d chain size %d\nconv=%v\nchain=%v",
				trial, len(conv), len(chain), conv, chain)
		}
		for _, ci := range conv {
			found := false
			for _, cp := range chain {
				if math.Abs(cp.X-pts[ci][0]) < 1e-12 && math.Abs(cp.Y-pts[ci][1]) < 1e-12 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: conv point %d (%v) not on 2-d chain", trial, ci, pts[ci])
			}
		}
	}
}

// TestGeoGreedyPrefixContainsConvEventually: the stored list run to
// exhaustion selects exactly a superset of nothing less than D_conv
// (every extreme point must eventually be selected to reach regret
// zero), and only hull points are ever selected after the seeds.
func TestStoredListExhaustsHull(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := antiCorrelated(rng, 40, 3)
	list, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ConvexHullPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := list.Query(list.Len())
	if err != nil {
		t.Fatal(err)
	}
	selected := toSet(full)
	for _, c := range conv {
		if !selected[c] {
			t.Fatalf("extreme point %d never selected; list %v", c, full)
		}
	}
}

func toSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func TestConvexAmongHappyValidation(t *testing.T) {
	pts := []geom.Vector{{1, 1}}
	if _, err := ConvexAmongHappy(pts, []int{3}); err == nil {
		t.Fatal("out-of-range happy index accepted")
	}
	got, err := ConvexAmongHappy(pts, nil)
	if err != nil || got != nil {
		t.Fatalf("empty candidates: %v, %v", got, err)
	}
}
