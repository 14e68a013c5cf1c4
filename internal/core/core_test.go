package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

// randomNormalized generates n strictly-positive d-dimensional points
// with per-dimension maximum 1 (the paper's normalization).
func randomNormalized(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = 0.02 + 0.98*rng.Float64()
		}
		pts[i] = p
	}
	for j := 0; j < d; j++ {
		maxv := 0.0
		for _, p := range pts {
			maxv = math.Max(maxv, p[j])
		}
		for _, p := range pts {
			p[j] /= maxv
		}
	}
	return pts
}

// antiCorrelated generates points near the simplex Σx = 1, which
// makes large skylines and non-trivial selections.
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
	for j := 0; j < d; j++ {
		maxv := 0.0
		for _, p := range pts {
			maxv = math.Max(maxv, p[j])
		}
		for _, p := range pts {
			p[j] /= maxv
		}
	}
	return pts
}

func TestBoundaryPoints(t *testing.T) {
	pts := []geom.Vector{{1, 0.2}, {0.3, 1}, {0.5, 0.5}}
	got := BoundaryPoints(pts)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("BoundaryPoints = %v", got)
	}
	// One point maximal in all dimensions: deduplicated.
	pts = []geom.Vector{{1, 1}, {0.5, 0.9}}
	got = BoundaryPoints(pts)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("BoundaryPoints dedupe = %v", got)
	}
	if BoundaryPoints(nil) != nil {
		t.Fatal("empty input")
	}
}

func TestValidation(t *testing.T) {
	if _, err := GeoGreedy(nil, 3); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	if _, err := GeoGreedy([]geom.Vector{{1, 1}}, 0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := GeoGreedy([]geom.Vector{{1, 1}, {1}}, 1); err == nil {
		t.Fatal("ragged accepted")
	}
	if _, err := GeoGreedy([]geom.Vector{{1, 0}}, 1); err == nil {
		t.Fatal("zero coordinate accepted")
	}
	if _, err := GeoGreedy([]geom.Vector{{1, math.Inf(1)}}, 1); err == nil {
		t.Fatal("Inf accepted")
	}
	if _, err := Greedy(nil, 3); err != ErrNoPoints {
		t.Fatalf("greedy empty: %v", err)
	}
	if _, err := Greedy([]geom.Vector{{1, 1}}, 0); err != ErrBadK {
		t.Fatalf("greedy k=0: %v", err)
	}
}

func TestGeoGreedyTinyExact(t *testing.T) {
	// Three mutually non-dominating points; k = 3 selects all and
	// regret must be zero.
	pts := []geom.Vector{{1, 0.1}, {0.1, 1}, {0.8, 0.8}}
	res, err := GeoGreedy(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 3 {
		t.Fatalf("selected %v", res.Indices)
	}
	if res.MRR != 0 {
		t.Fatalf("MRR = %v, want 0", res.MRR)
	}
}

func TestGeoGreedyEarlyTermination(t *testing.T) {
	// Two extreme points plus many interior ones: after selecting
	// the extremes, every critical ratio is ≥ 1 and the algorithm
	// must stop with fewer than k points.
	pts := []geom.Vector{{1, 0.05}, {0.05, 1}}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		// Strictly inside the triangle hull of the two extremes.
		lam := 0.2 + 0.6*rng.Float64()
		shrink := 0.3 + 0.5*rng.Float64()
		p := geom.Vector{
			(lam*1 + (1-lam)*0.05) * shrink,
			(lam*0.05 + (1-lam)*1) * shrink,
		}
		pts = append(pts, p)
	}
	res, err := GeoGreedy(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR != 0 {
		t.Fatalf("MRR = %v, want 0", res.MRR)
	}
	if res.ExhaustedAt < 0 || len(res.Indices) >= 10 {
		t.Fatalf("expected early termination, got %d points (exhausted %d)",
			len(res.Indices), res.ExhaustedAt)
	}
}

// TestMaxSupportFold pins the contract of GeoGreedy's one fold over
// the cached supports of the active list: the first maximum wins
// ties, a NaN on any unselected candidate is ErrDegenerate naming the
// lowest poisoned one (a taken candidate's NaN is never read), no
// eligible candidate gives (-1, 0), −Inf is an ordinary legal value,
// and the taken and retired candidates leave the list.
func TestMaxSupportFold(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	free := func(v float64) candState { return candState{bestVal: v} }
	taken := func(v float64) candState { return candState{bestVal: v, taken: true} }
	retired := func(v float64) candState { return candState{bestVal: v, retired: true} }
	for _, tc := range []struct {
		name    string
		states  []candState
		best    int
		val     float64
		nanCand int // lowest poisoned candidate, or -1 for no error
		kept    []int
	}{
		{"ties go to the lowest index", []candState{free(1), free(3), taken(9), free(3), free(2)}, 1, 3, -1, []int{0, 1, 3, 4}},
		{"+Inf wins", []candState{free(2), free(inf), free(inf)}, 1, inf, -1, []int{0, 1, 2}},
		{"NaN names the lowest poisoned candidate",
			[]candState{free(5), free(nan), free(7), free(nan)}, -1, 0, 1, nil},
		{"NaN after the maximum still poisons", []candState{free(9), free(1), free(nan)}, -1, 0, 2, nil},
		{"a taken NaN is not read", []candState{taken(nan), free(2)}, 1, 2, -1, []int{1}},
		{"no candidate is eligible", []candState{taken(4), taken(nan)}, -1, 0, -1, []int{}},
		{"empty", nil, -1, 0, -1, []int{}},
		{"-Inf is legal", []candState{taken(3), free(math.Inf(-1))}, 1, math.Inf(-1), -1, []int{1}},
		{"-Inf loses to any finite value", []candState{free(math.Inf(-1)), free(-5)}, 1, -5, -1, []int{0, 1}},
		{"retired candidates leave the list", []candState{retired(0.5), free(2), retired(0.9), free(3)}, 3, 3, -1, []int{1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			active := make([]int, len(tc.states))
			for i := range active {
				active[i] = i
			}
			best, val, err := maxSupport(tc.states, &active)
			if tc.nanCand >= 0 {
				if !errors.Is(err, ErrDegenerate) {
					t.Fatalf("err = %v, want ErrDegenerate", err)
				}
				if want := fmt.Sprintf("candidate %d has NaN", tc.nanCand); !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %q, want it to name %q", err, want)
				}
				if best != -1 {
					t.Fatalf("best = %d on a poisoned fold, want -1", best)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if best != tc.best || val != tc.val {
				t.Fatalf("maxSupport = (%d, %v), want (%d, %v)", best, val, tc.best, tc.val)
			}
			if !reflect.DeepEqual(active, tc.kept) {
				t.Fatalf("active after the fold = %v, want %v", active, tc.kept)
			}
		})
	}
}

// TestGeoGreedyMatchesGreedy is the paper's core claim (Section
// IV-A): Greedy and GeoGreedy produce the same selection because
// line 6 computes the same argmax by different means.
func TestGeoGreedyMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(3)
		n := 10 + rng.Intn(40)
		k := d + rng.Intn(6)
		pts := antiCorrelated(rng, n, d)
		geo, err := GeoGreedy(pts, k)
		if err != nil {
			t.Fatalf("trial %d geo: %v", trial, err)
		}
		grd, err := Greedy(pts, k)
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if math.Abs(geo.MRR-grd.MRR) > 1e-6 {
			t.Fatalf("trial %d: MRR geo %v vs greedy %v (sel %v vs %v)",
				trial, geo.MRR, grd.MRR, geo.Indices, grd.Indices)
		}
		if !reflect.DeepEqual(geo.Indices, grd.Indices) {
			// Ties can legitimately reorder; require same regret and
			// same set size at minimum, and matching sets in the
			// common case. Sets differing with equal regret are
			// tolerated only if a tie exists; detect by comparing
			// sorted mrr of both selections.
			m1, err1 := evalMRR(pts, geo.Indices)
			m2, err2 := evalMRR(pts, grd.Indices)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: eval errors %v %v", trial, err1, err2)
			}
			if math.Abs(m1-m2) > 1e-6 {
				t.Fatalf("trial %d: selections differ beyond ties: %v (%v) vs %v (%v)",
					trial, geo.Indices, m1, grd.Indices, m2)
			}
		}
	}
}

// TestDualSupportMatchesLP: the geometric support value (max over
// dual vertices) must equal the LP optimum for random selections and
// queries — Lemma 1's computational core.
func TestDualSupportMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(4)
		n := 8 + rng.Intn(20)
		pts := randomNormalized(rng, n, d)
		selN := d + rng.Intn(4)
		if selN > n {
			selN = n
		}
		sel := rng.Perm(n)[:selN]
		selPts := make([]geom.Vector, len(sel))
		for i, s := range sel {
			selPts[i] = pts[s]
		}
		hull, err := newDualHull(maxPerDim(selPts))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range selPts {
			if _, err := hull.insert(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		}
		for probe := 0; probe < 8; probe++ {
			q := pts[rng.Intn(n)]
			geo, _ := hull.supportOf(q)
			viaLP, err := supportByLP(context.Background(), pts, sel, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(geo-viaLP) > 1e-6*(1+viaLP) {
				t.Fatalf("trial %d: support geo %v vs LP %v (q=%v)", trial, geo, viaLP, q)
			}
		}
	}
}

// TestMRREvaluatorsAgree: Lemma 1 (geometric), the LP formulation and
// dense utility sampling must agree on the same selection.
func TestMRREvaluatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(3)
		n := 10 + rng.Intn(30)
		pts := antiCorrelated(rng, n, d)
		res, err := GeoGreedy(pts, d+2)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := evalMRR(pts, res.Indices)
		if err != nil {
			t.Fatal(err)
		}
		viaLP, err := MRRByLP(pts, res.Indices)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(geo-viaLP) > 1e-6 {
			t.Fatalf("trial %d: MRR geometric %v vs LP %v", trial, geo, viaLP)
		}
		// The algorithm's own reported MRR must match the evaluator.
		if math.Abs(geo-res.MRR) > 1e-6 {
			t.Fatalf("trial %d: reported MRR %v vs evaluated %v", trial, res.MRR, geo)
		}
		// Sampling lower-bounds and approaches the exact value.
		sampled, _, err := sampledRegret(pts, res.Indices, 20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sampled > geo+1e-9 {
			t.Fatalf("trial %d: sampled %v exceeds exact %v", trial, sampled, geo)
		}
		if geo > 0.02 && sampled < geo*0.5 {
			t.Fatalf("trial %d: sampled %v far below exact %v", trial, sampled, geo)
		}
	}
}

// TestMRRMonotoneInK: adding budget can only help the greedy answer.
func TestMRRMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := antiCorrelated(rng, 60, 3)
	prev := 2.0
	for k := 3; k <= 20; k++ {
		res, err := GeoGreedy(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.MRR > prev+1e-9 {
			t.Fatalf("MRR increased with k: %v at k=%d, was %v", res.MRR, k, prev)
		}
		prev = res.MRR
	}
}

// TestSelectedPointsHaveUnitCriticalRatio: for points in S on the
// hull, cr = 1 (the paper's observation before Lemma 1).
func TestSelectedPointsHaveUnitCriticalRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := antiCorrelated(rng, 30, 3)
	res, err := GeoGreedy(pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	selPts := make([]geom.Vector, len(res.Indices))
	for i, s := range res.Indices {
		selPts[i] = pts[s]
	}
	hull, err := newDualHull(maxPerDim(selPts))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range selPts {
		if _, err := hull.insert(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range selPts {
		cr := hull.criticalRatio(p)
		// Selected points are on the hull boundary: cr ≤ 1 + eps.
		// Greedy-selected points are extreme, hence cr = 1 exactly.
		if math.Abs(cr-1) > 1e-7 {
			t.Fatalf("selected point %d has cr = %v, want 1", i, cr)
		}
	}
}

func TestStoredListMatchesGeoGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := antiCorrelated(rng, 50, 3)
	list, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 3; k <= list.Len(); k += 2 {
		fromList, err := list.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := GeoGreedy(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromList, direct.Indices) {
			t.Fatalf("k=%d: list %v vs direct %v", k, fromList, direct.Indices)
		}
		mrr, err := list.MRRFor(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mrr-direct.MRR) > 1e-9 {
			t.Fatalf("k=%d: list MRR %v vs direct %v", k, mrr, direct.MRR)
		}
	}
	// Query beyond list length returns the whole list.
	all, err := list.Query(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != list.Len() {
		t.Fatalf("oversized query returned %d of %d", len(all), list.Len())
	}
	if _, err := list.Query(0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
}

func TestStoredListCoversHullThenStops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := antiCorrelated(rng, 40, 2)
	list, err := BuildStoredList(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The full list has zero regret.
	mrr, err := list.MRRFor(list.Len())
	if err != nil {
		t.Fatal(err)
	}
	if mrr > 1e-9 {
		t.Fatalf("full-list MRR = %v, want 0", mrr)
	}
	// And it should not contain every candidate (interior points are
	// never selected).
	if list.Len() == len(pts) {
		t.Skip("degenerate draw: every candidate extreme")
	}
}

func TestKLessThanD(t *testing.T) {
	// Paper Section VII: with k < d even the optimum is unbounded;
	// the implementation still answers with its best effort.
	delta := 0.01
	pts := []geom.Vector{
		{delta, delta, delta, 1},
		{delta, delta, 1, delta},
		{delta, 1, delta, delta},
		{1, delta, delta, delta},
	}
	res, err := GeoGreedy(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 3 {
		t.Fatalf("selected %d points, want 3", len(res.Indices))
	}
	mrr, err := evalMRR(pts, res.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if mrr < 0.9 {
		t.Fatalf("k<d regret = %v, want near 1 (unbounded case)", mrr)
	}
}

func TestSelectHelper(t *testing.T) {
	pts := []geom.Vector{{1, 1}, {0.5, 0.5}}
	got, err := Select(pts, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(pts[1], 0) || !got[1].Equal(pts[0], 0) {
		t.Fatal("Select wrong order")
	}
	if _, err := Select(pts, []int{2}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := Select(pts, []int{-1}); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestEvaluateErrors(t *testing.T) {
	pts := []geom.Vector{{1, 1}, {0.5, 0.5}}
	if _, err := evalMRR(pts, nil); err != ErrEmptySelection {
		t.Fatalf("empty selection: %v", err)
	}
	if _, err := evalMRR(pts, []int{5}); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
	if _, _, err := sampledRegret(pts, []int{0}, 0, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := evalRegretOf(pts, []int{0}, geom.Vector{1}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	if _, err := evalRegretOf(pts, []int{0}, geom.Vector{-1, 1}); err == nil {
		t.Fatal("negative weights accepted")
	}
}

func TestRegretOfKnown(t *testing.T) {
	// The paper's Table II example: S = {p2, p3}, f = (0.7 MPG, 0.3 HP)
	// gives rr = 1 − 0.811/0.916 ≈ 0.115.
	pts := []geom.Vector{
		{0.94, 0.80},
		{0.76, 0.93},
		{0.67, 1.00},
		{1.00, 0.72},
	}
	r, err := evalRegretOf(pts, []int{1, 2}, geom.Vector{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.811/0.916
	if math.Abs(r-want) > 1e-3 {
		t.Fatalf("regret = %v, want %v", r, want)
	}
	// f = (0.3, 0.7): p3 is the overall best and is selected → 0.
	r, err = evalRegretOf(pts, []int{1, 2}, geom.Vector{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("regret = %v, want 0", r)
	}
}

func TestWorstUtility(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := antiCorrelated(rng, 40, 3)
	res, err := GeoGreedy(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, witness, err := evalWorstUtility(pts, res.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if res.MRR > 1e-6 {
		if w == nil || witness < 0 {
			t.Fatalf("no worst utility despite MRR %v", res.MRR)
		}
		// The regret of that utility must equal the MRR.
		r, err := evalRegretOf(pts, res.Indices, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-res.MRR) > 1e-6 {
			t.Fatalf("worst utility regret %v vs MRR %v", r, res.MRR)
		}
	}
	// Full selection → zero regret → no witness.
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	w, witness, err = evalWorstUtility(pts, all)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil || witness != -1 {
		t.Fatalf("full-selection worst utility = %v, %d", w, witness)
	}
}

func TestAverageRegretLeqMax(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := antiCorrelated(rng, 30, 3)
	res, err := GeoGreedy(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, avg, err := sampledRegret(pts, res.Indices, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	maxr, err := evalMRR(pts, res.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if avg > maxr+1e-9 {
		t.Fatalf("average regret %v exceeds max %v", avg, maxr)
	}
}
