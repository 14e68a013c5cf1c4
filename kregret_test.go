package kregret

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func testPoints(n, d int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		var sum float64
		for j := range p {
			p[j] = 0.05 + rng.ExpFloat64()
			sum += p[j]
		}
		for j := range p {
			p[j] = p[j] / sum * (0.8 + 0.4*rng.Float64())
		}
		pts[i] = p
	}
	return pts
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	if _, err := NewDataset([]Point{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged accepted")
	}
	if _, err := NewDataset([]Point{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
	// Negative coordinates fail even with normalization (scaling
	// cannot make them positive).
	if _, err := NewDataset([]Point{{-1, 2}, {3, 4}}); err == nil {
		t.Fatal("negative accepted")
	}
	// Without normalization, zero coordinates are rejected.
	if _, err := NewDataset([]Point{{0, 1}}, WithoutNormalization()); err == nil {
		t.Fatal("zero without normalization accepted")
	}
}

func TestNormalizationDefaults(t *testing.T) {
	ds, err := NewDataset([]Point{{10, 1}, {5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Point(0)
	if math.Abs(p[0]-1) > 1e-12 || math.Abs(p[1]-0.25) > 1e-12 {
		t.Fatalf("normalized point 0 = %v", p)
	}
	// Input slice is copied.
	raw := []Point{{3, 4}}
	ds2, _ := NewDataset(raw)
	raw[0][0] = 99
	if ds2.Point(0)[0] == 99 {
		t.Fatal("NewDataset aliases input")
	}
	// Point returns a copy.
	q := ds2.Point(0)
	q[0] = -5
	if ds2.Point(0)[0] == -5 {
		t.Fatal("Point aliases internal state")
	}
}

func TestQueryBasics(t *testing.T) {
	ds, err := NewDataset(testPoints(200, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ds.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Indices) > 5 || len(ans.Indices) < 3 {
		t.Fatalf("answer size %d", len(ans.Indices))
	}
	if ans.MRR < 0 || ans.MRR >= 1 {
		t.Fatalf("MRR %v out of range", ans.MRR)
	}
	if ans.Algorithm != AlgoGeoGreedy || ans.Candidates != CandidatesHappy {
		t.Fatalf("defaults: %v %v", ans.Algorithm, ans.Candidates)
	}
	// Evaluating the answer reproduces the reported regret.
	mrr, err := ds.EvaluateMRR(ans.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mrr-ans.MRR) > 1e-6 {
		t.Fatalf("EvaluateMRR %v vs reported %v", mrr, ans.MRR)
	}
	if _, err := ds.Query(0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
}

func TestQueryAlgorithmsAgree(t *testing.T) {
	ds, err := NewDataset(testPoints(150, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := ds.Query(6)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := ds.Query(6, WithAlgorithm(AlgoGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(geo.MRR-grd.MRR) > 1e-6 {
		t.Fatalf("algorithms disagree: %v vs %v", geo.MRR, grd.MRR)
	}
	if grd.Algorithm != AlgoGreedy {
		t.Fatalf("answer records %v", grd.Algorithm)
	}
}

func TestQueryCandidateSets(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []CandidateSet{CandidatesHappy, CandidatesSkyline, CandidatesAll} {
		ans, err := ds.Query(5, WithCandidates(c))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if ans.Candidates != c {
			t.Fatalf("answer records %v, want %v", ans.Candidates, c)
		}
		// All three candidate sets contain the hull extreme points,
		// so the measured regret of any answer is exact; happy
		// candidates must be at least as good as the others.
	}
}

func TestCandidateSetInclusions(t *testing.T) {
	ds, err := NewDataset(testPoints(400, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	hp, err := ds.HappyPoints()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ds.ConvexPoints()
	if err != nil {
		t.Fatal(err)
	}
	inSky := map[int]bool{}
	for _, i := range sky {
		inSky[i] = true
	}
	inHp := map[int]bool{}
	for _, i := range hp {
		inHp[i] = true
	}
	for _, i := range hp {
		if !inSky[i] {
			t.Fatalf("happy %d not skyline", i)
		}
	}
	for _, i := range conv {
		if !inHp[i] {
			t.Fatalf("conv %d not happy", i)
		}
	}
	// Accessors return copies.
	sky[0] = -1
	sky2, _ := ds.Skyline()
	if sky2[0] == -1 {
		t.Fatal("Skyline aliases cache")
	}
}

func TestIndexMatchesQuery(t *testing.T) {
	ds, err := NewDataset(testPoints(250, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 5, 8} {
		fromIdx, err := idx.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ds.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromIdx.Indices, direct.Indices) {
			t.Fatalf("k=%d: index %v vs direct %v", k, fromIdx.Indices, direct.Indices)
		}
		if math.Abs(fromIdx.MRR-direct.MRR) > 1e-9 {
			t.Fatalf("k=%d: index MRR %v vs direct %v", k, fromIdx.MRR, direct.MRR)
		}
	}
	if _, err := idx.Query(0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
	if idx.Len() < 3 {
		t.Fatalf("index length %d", idx.Len())
	}
}

func TestRegretHelpers(t *testing.T) {
	ds, err := NewDataset(testPoints(100, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ds.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ds.RegretOf(ans.Indices, Point{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r < 0 || r > ans.MRR+1e-9 {
		t.Fatalf("pointwise regret %v vs MRR %v", r, ans.MRR)
	}
	avg, err := ds.AverageRegret(ans.Indices, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 0 || avg > ans.MRR+1e-9 {
		t.Fatalf("average regret %v vs MRR %v", avg, ans.MRR)
	}
	if ans.MRR > 1e-6 {
		w, witness, err := ds.WorstUtility(ans.Indices)
		if err != nil {
			t.Fatal(err)
		}
		if witness < 0 {
			t.Fatal("no witness despite positive regret")
		}
		wr, err := ds.RegretOf(ans.Indices, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(wr-ans.MRR) > 1e-6 {
			t.Fatalf("worst utility regret %v vs MRR %v", wr, ans.MRR)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if AlgoGeoGreedy.String() != "GeoGreedy" || AlgoGreedy.String() != "Greedy" {
		t.Fatal("algorithm strings")
	}
	if CandidatesHappy.String() != "happy" || CandidatesSkyline.String() != "skyline" || CandidatesAll.String() != "all" {
		t.Fatal("candidate strings")
	}
	if Algorithm(9).String() == "" || CandidateSet(9).String() == "" {
		t.Fatal("unknown enums")
	}
}

func TestQueryMonotonicity(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for k := 3; k <= 15; k += 2 {
		ans, err := ds.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if ans.MRR > prev+1e-9 {
			t.Fatalf("regret increased with k at %d: %v > %v", k, ans.MRR, prev)
		}
		prev = ans.MRR
	}
}

func TestBigKReturnsZeroRegret(t *testing.T) {
	ds, err := NewDataset(testPoints(100, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ds.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if ans.MRR > 1e-9 {
		t.Fatalf("k=n regret %v", ans.MRR)
	}
}

func TestQueryCube(t *testing.T) {
	ds, err := NewDataset(testPoints(200, 3, 21))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ds.Query(12, WithAlgorithm(AlgoCube))
	if err != nil {
		t.Fatal(err)
	}
	if cube.Algorithm != AlgoCube {
		t.Fatalf("answer records %v", cube.Algorithm)
	}
	geo, err := ds.Query(12)
	if err != nil {
		t.Fatal(err)
	}
	// CUBE is a valid answer (bounded regret) but the greedy should
	// not be beaten by a wide margin.
	if geo.MRR > cube.MRR+1e-9 {
		t.Fatalf("greedy %v worse than CUBE %v", geo.MRR, cube.MRR)
	}
	if AlgoCube.String() != "Cube" {
		t.Fatal("AlgoCube String")
	}
}

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test and restores
// it afterwards. Dataset passes run at width GOMAXPROCS and the Engine
// derives its per-query width from it, so this is how a test picks a
// width.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestWidthParity builds the same dataset at GOMAXPROCS 1 (the exact
// sequential path) and 4 and requires identical candidate sets,
// answers and evaluator results.
func TestWidthParity(t *testing.T) {
	pts := testPoints(600, 4, 22)
	type result struct {
		sky, happy []int
		ans        *Answer
		mrr        float64
	}
	run := func(procs int) result {
		setGOMAXPROCS(t, procs)
		ds, err := NewDataset(pts)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		if r.sky, err = ds.Skyline(); err != nil {
			t.Fatal(err)
		}
		if r.happy, err = ds.HappyPoints(); err != nil {
			t.Fatal(err)
		}
		if r.ans, err = ds.Query(8); err != nil {
			t.Fatal(err)
		}
		if r.mrr, err = ds.EvaluateMRR(r.ans.Indices); err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq.sky, par.sky) {
		t.Fatal("skyline differs between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(seq.happy, par.happy) {
		t.Fatal("happy points differ between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(seq.ans, par.ans) {
		t.Fatalf("answers differ: %+v vs %+v", seq.ans, par.ans)
	}
	if math.Float64bits(seq.mrr) != math.Float64bits(par.mrr) {
		t.Fatalf("EvaluateMRR differs: %v vs %v", seq.mrr, par.mrr)
	}
}
