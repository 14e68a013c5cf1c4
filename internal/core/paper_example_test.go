package core

// This file pins the implementation to the worked examples in the
// paper itself: the car database of Tables I–II, the running example
// of Figures 1–6 (reconstructed coordinates with the same stated
// relationships), and the k < d discussion of Section VII.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
)

// carDB is Table I: (normalized MPG, normalized HP).
var carDB = []geom.Vector{
	{0.94, 0.80}, // p1 BMW M3 GTS
	{0.76, 0.93}, // p2 Chevrolet Camaro SS
	{0.67, 1.00}, // p3 Ford Shelby GT500
	{1.00, 0.72}, // p4 Nissan 370Z coupe
}

// TestTableIIUtilities reproduces every utility value of Table II.
func TestTableIIUtilities(t *testing.T) {
	fs := []geom.Vector{{0.3, 0.7}, {0.5, 0.5}, {0.7, 0.3}}
	want := [][]float64{
		{0.842, 0.870, 0.898},
		{0.879, 0.845, 0.811},
		{0.901, 0.835, 0.769},
		{0.804, 0.860, 0.916},
	}
	for i, p := range carDB {
		for j, f := range fs {
			got := f.Dot(p)
			if math.Abs(got-want[i][j]) > 5e-4 {
				t.Fatalf("utility p%d f%d = %v, want %v", i+1, j, got, want[i][j])
			}
		}
	}
}

// TestCarExampleMRR reproduces the example computation below Table II:
// S = {p2, p3} has mrr 0.115 over the discrete function class
// {f(0.3,0.7), f(0.5,0.5), f(0.7,0.3)}.
func TestCarExampleMRR(t *testing.T) {
	sel := []int{1, 2}
	fs := []geom.Vector{{0.3, 0.7}, {0.5, 0.5}, {0.7, 0.3}}
	want := []float64{0, 0.029, 0.115}
	worst := 0.0
	for i, f := range fs {
		r, err := evalRegretOf(carDB, sel, f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-want[i]) > 2e-3 {
			t.Fatalf("rr(S, f%d) = %v, want %v", i, r, want[i])
		}
		worst = math.Max(worst, r)
	}
	if math.Abs(worst-0.115) > 2e-3 {
		t.Fatalf("mrr over discrete class = %v, want 0.115", worst)
	}
	// Over the full linear class the mrr can only be larger.
	full, err := evalMRR(carDB, sel)
	if err != nil {
		t.Fatal(err)
	}
	if full < worst-1e-9 {
		t.Fatalf("full-class mrr %v below discrete-class %v", full, worst)
	}
}

// runningExample reconstructs the paper's Figure 1 data: 7 points in
// 2-d where p6 is the first-dimension boundary point, p7 the second-
// dimension boundary point, all seven are skyline points, p2 is
// subjugated by p3 (the only non-happy point), and D_conv is
// {p1, p3, p5, p6, p7}: p4 is happy but not on the hull.
//
// The paper does not print coordinates; these satisfy every stated
// relationship, which the tests verify via the library itself.
var runningExample = []geom.Vector{
	{0.55, 0.90}, // p1: hull extreme (above the p7–p3 chord)
	{0.65, 0.72}, // p2: skyline but below both Y(p3) lines → subjugated
	{0.75, 0.70}, // p3: hull extreme
	{0.82, 0.55}, // p4: below the p3–p5 chord yet above a line of every
	//               Y(p): happy but not extreme
	{0.90, 0.45}, // p5: hull extreme
	{1.00, 0.10}, // p6: first-dimension boundary point
	{0.20, 1.00}, // p7: second-dimension boundary point
}

func TestRunningExampleSkyline(t *testing.T) {
	sky, err := skyline.Of(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sky, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("skyline = %v, want all 7 points", sky)
	}
}

func TestRunningExampleBoundary(t *testing.T) {
	b := BoundaryPoints(runningExample)
	if !reflect.DeepEqual(b, []int{5, 6}) {
		t.Fatalf("boundary points = %v, want [5 6] (p6, p7)", b)
	}
}

func TestRunningExampleHappy(t *testing.T) {
	hp, err := happy.Compute(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 3, 4, 5, 6} // everyone but p2
	if !reflect.DeepEqual(hp, want) {
		t.Fatalf("happy = %v, want %v", hp, want)
	}
	// That p3 is what subjugates p2 (Figure 5) is checked on the same
	// two points by internal/happy's TestSubjugatesBasics.
}

func TestRunningExampleConv(t *testing.T) {
	conv, err := ConvexHullPoints(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4, 5, 6} // p1, p3, p5, p6, p7
	if !reflect.DeepEqual(conv, want) {
		t.Fatalf("conv = %v, want %v", conv, want)
	}
}

// TestRunningExampleLemma4: the strict inclusions of Lemma 4 hold:
// a happy point outside D_conv (p4) and a skyline point outside
// D_happy (p2) both exist.
func TestRunningExampleLemma4(t *testing.T) {
	hp, err := happy.Compute(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ConvexAmongHappy(runningExample, hp)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := skyline.Of(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv) >= len(hp) {
		t.Fatalf("no happy-but-not-conv point: conv %v happy %v", conv, hp)
	}
	if len(hp) >= len(sky) {
		t.Fatalf("no skyline-but-not-happy point: happy %v sky %v", hp, sky)
	}
}

// TestSectionVIIUnbounded reproduces the k < d example of Section
// VII: four near-axis points in 4-d; any 3 of them leave regret ≈ 1.
func TestSectionVIIUnbounded(t *testing.T) {
	delta := 1e-3
	pts := []geom.Vector{
		{delta, delta, delta, 1},
		{delta, delta, 1, delta},
		{delta, 1, delta, delta},
		{1, delta, delta, delta},
	}
	// Every 3-subset has mrr ≈ 1 (the dropped axis direction).
	for drop := 0; drop < 4; drop++ {
		var sel []int
		for i := range pts {
			if i != drop {
				sel = append(sel, i)
			}
		}
		mrr, err := evalMRR(pts, sel)
		if err != nil {
			t.Fatal(err)
		}
		if mrr < 0.99 {
			t.Fatalf("drop %d: mrr = %v, want ≈ 1", drop, mrr)
		}
	}
	// With k = 4 = d the regret is zero.
	res, err := GeoGreedy(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR > 1e-9 {
		t.Fatalf("k=d regret = %v, want 0", res.MRR)
	}
}
