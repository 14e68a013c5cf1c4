package happy

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

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
