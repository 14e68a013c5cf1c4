package core

// Property-based tests (testing/quick) on the core invariants. Each
// property receives random raw bytes/floats and derives a valid
// instance from them, so quick explores the input space while the
// derivation guarantees the paper's preconditions (positive
// normalized coordinates).

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// instanceFromSeed derives a random normalized dataset from a seed.
func instanceFromSeed(seed int64, maxN, maxD int) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(maxN-3)
	d := 2 + rng.Intn(maxD-1)
	return antiCorrelated(rng, n, d)
}

// Property: the two exact evaluators agree on arbitrary selections.
func TestPropertyEvaluatorAgreement(t *testing.T) {
	f := func(seed int64, selSeed int64) bool {
		pts := instanceFromSeed(seed, 24, 4)
		rng := rand.New(rand.NewSource(selSeed))
		selN := 1 + rng.Intn(len(pts))
		sel := rng.Perm(len(pts))[:selN]
		geo, err1 := evalMRR(pts, sel)
		viaLP, err2 := MRRByLP(pts, sel)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(geo-viaLP) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: regret is monotone under selection growth — adding a
// point never increases the maximum regret ratio.
func TestPropertySelectionMonotone(t *testing.T) {
	f := func(seed int64, addSeed int64) bool {
		pts := instanceFromSeed(seed, 24, 4)
		rng := rand.New(rand.NewSource(addSeed))
		perm := rng.Perm(len(pts))
		base := perm[:1+rng.Intn(len(pts)-1)]
		extended := append(append([]int(nil), base...), perm[len(base):len(base)+1]...)
		if len(extended) > len(pts) {
			return true
		}
		m1, err1 := evalMRR(pts, base)
		m2, err2 := evalMRR(pts, extended)
		if err1 != nil || err2 != nil {
			return false
		}
		return m2 <= m1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the full selection always has zero regret.
func TestPropertyFullSelectionZero(t *testing.T) {
	f := func(seed int64) bool {
		pts := instanceFromSeed(seed, 20, 4)
		all := make([]int, len(pts))
		for i := range all {
			all[i] = i
		}
		mrr, err := evalMRR(pts, all)
		return err == nil && mrr <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: GeoGreedy's reported regret equals independent
// evaluation of its selection, for every k.
func TestPropertyReportedRegretConsistent(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		pts := instanceFromSeed(seed, 28, 4)
		k := 1 + int(kRaw)%len(pts)
		res, err := GeoGreedy(pts, k)
		if err != nil {
			return false
		}
		mrr, err := evalMRR(pts, res.Indices)
		if err != nil {
			return false
		}
		return math.Abs(mrr-res.MRR) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampled regret never exceeds the exact maximum and the
// regret of any single sampled utility never exceeds the sampled
// maximum (internal consistency of the regret definitions).
func TestPropertySamplingBounds(t *testing.T) {
	f := func(seed int64) bool {
		pts := instanceFromSeed(seed, 20, 3)
		res, err := GeoGreedy(pts, 3)
		if err != nil {
			return false
		}
		exact, err := evalMRR(pts, res.Indices)
		if err != nil {
			return false
		}
		sampled, avg, err := sampledRegret(pts, res.Indices, 500, seed)
		if err != nil {
			return false
		}
		return sampled <= exact+1e-9 && avg <= sampled+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling utility weights does not change regret (the
// "concise and complete" function-class argument of Section II).
func TestPropertyRegretScaleInvariant(t *testing.T) {
	f := func(seed int64, scaleRaw uint16) bool {
		pts := instanceFromSeed(seed, 20, 3)
		res, err := GeoGreedy(pts, 3)
		if err != nil {
			return false
		}
		d := len(pts[0])
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = rng.Float64()
		}
		scale := 0.001 + float64(scaleRaw)/100
		r1, err1 := evalRegretOf(pts, res.Indices, w)
		r2, err2 := evalRegretOf(pts, res.Indices, w.Scale(scale))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1-r2) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cr(p, S) == 1 for every selected hull point, and ≥ 1 − mrr
// for every candidate (Lemma 1's internal consistency).
func TestPropertyCriticalRatioBounds(t *testing.T) {
	f := func(seed int64) bool {
		pts := instanceFromSeed(seed, 24, 3)
		res, err := GeoGreedy(pts, 4)
		if err != nil {
			return false
		}
		selPts := make([]geom.Vector, len(res.Indices))
		for i, s := range res.Indices {
			selPts[i] = pts[s]
		}
		hull, err := newDualHull(maxPerDim(selPts))
		if err != nil {
			return false
		}
		for _, p := range selPts {
			if _, err := hull.insert(context.Background(), p); err != nil {
				return false
			}
		}
		minCR := math.Inf(1)
		for _, q := range pts {
			cr := hull.criticalRatio(q)
			if cr < minCR {
				minCR = cr
			}
		}
		mrr, err := evalMRR(pts, res.Indices)
		if err != nil {
			return false
		}
		return math.Abs((1-minCR)-mrr) <= 1e-6 || (minCR >= 1 && mrr <= 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
