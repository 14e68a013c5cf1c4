package happy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

// Subjugates reports whether p subjugates q per Definition 4: the
// validated form of the kernel's subjugates. Both points must be
// finite and strictly positive.
func Subjugates(p, q geom.Vector) (bool, error) {
	if err := geom.CheckSameDim(p, q); err != nil {
		return false, fmt.Errorf("happy: %w", err)
	}
	if err := checkPoint(0, p); err != nil {
		return false, err
	}
	if err := checkPoint(1, q); err != nil {
		return false, err
	}
	return subjugates(p, q), nil
}

// SubjugatesByPlanes decides subjugation by explicitly testing q
// against every enumerated hyperplane of Y(p). Exponential in d; the
// oracle Subjugates is checked against.
func SubjugatesByPlanes(p, q geom.Vector) (bool, error) {
	planes, err := EnumeratePlanes(p)
	if err != nil {
		return false, err
	}
	strict := false
	for _, h := range planes {
		switch v := h.Normal.Dot(q) - h.Offset; {
		case v > eps:
			return false, nil // q above this plane
		case v < -eps:
			strict = true
		}
	}
	return strict, nil
}

// bruteSkyline is the O(n²) skyline oracle: the points no other point
// dominates, ascending.
func bruteSkyline(pts []geom.Vector) []int {
	var out []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if j != i && geom.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// computeAmong is the scalar happy-point oracle: the members of
// candidates subjugated by no member of adversaries, ascending.
func computeAmong(pts []geom.Vector, candidates, adversaries []int) []int {
	out := make([]int, 0, len(candidates))
	for _, qi := range candidates {
		q := pts[qi]
		isHappy := true
		for _, pi := range adversaries {
			if pi == qi {
				continue
			}
			if subjugates(pts[pi], q) {
				isHappy = false
				break
			}
		}
		if isHappy {
			out = append(out, qi)
		}
	}
	sort.Ints(out)
	return out
}

// TestComputeMatchesCertOnBruteSkyline pins Compute's skyline source:
// Compute(pts) must equal the certificate entry run over the brute
// skyline, on tie-heavy grid inputs (duplicates and equal coordinate
// sums everywhere) and on the float-sum tie where a plain sort-filter
// window leaks a dominated point.
func TestComputeMatchesCertOnBruteSkyline(t *testing.T) {
	check := func(ctxt string, pts []geom.Vector) {
		t.Helper()
		got, err := Compute(pts)
		if err != nil {
			t.Fatalf("%s: %v", ctxt, err)
		}
		want := ComputeAmongSkylineCertParallel(pts, bruteSkyline(pts), 1).HappyPoints()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Compute = %v, cert over brute skyline = %v", ctxt, got, want)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(4)
		n := 20 + rng.Intn(400)
		levels := 2 + rng.Intn(8)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = float64(1+rng.Intn(levels)) / float64(levels)
			}
			pts[i] = p
		}
		check("grid", pts)
	}
	big := math.Ldexp(1, 53) // ulp = 2: adding 0.25 or 0.5 both round away
	for _, pts := range [][]geom.Vector{
		{{big, 0.25}, {big, 0.5}, {1, 1}},
		{{big, 1, 1, 0.25}, {big, 1, 1, 0.5}, {1, 1, 1, 1}},
	} {
		if math.Float64bits(pts[0].Sum()) != math.Float64bits(pts[1].Sum()) {
			t.Fatalf("sums not tied (%v vs %v): construction broken", pts[0].Sum(), pts[1].Sum())
		}
		check("sum-tie", pts)
	}
}

// witnessesScalar is the scalar reference: the per-pair scan, witness
// being the first subjugator in ascending sky order.
func witnessesScalar(pts []geom.Vector, sky []int) []int32 {
	wit := make([]int32, len(sky))
	rows := geom.Flatten(pts)
	for i, qi := range sky {
		wit[i] = scanWitness(rows, sky, qi)
	}
	return wit
}
