package skyline

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// fuzzBig is the coordinate byte 0xF0 and above decode to: at 2⁵³ the
// float64 spacing is 2, so adding a grid level below 1 rounds away and
// two points can tie on their float sum while one dominates the other
// (TestKernelSumTieExactness).
var fuzzBig = math.Ldexp(1, 53)

// fuzzPoints decodes data into at most 96 points: data[0] picks
// d = 2..6, data[1] the number of grid levels (1..8), and each later
// byte one coordinate, a level in [0, 1] (level 0 is a zero
// coordinate, which the killer cache skips) or, from 0xF0, fuzzBig.
// Few levels make duplicates and shared directions common, and at
// this size the exact pass's cache has only a few cells per
// dimension, so most arrivals go through it.
func fuzzPoints(data []byte) []geom.Vector {
	if len(data) < 2 {
		return nil
	}
	d := 2 + int(data[0])%5
	levels := 1 + int(data[1])%8
	body := data[2:]
	n := min(len(body)/d, 96)
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			switch b := body[i*d+j]; {
			case b >= 0xF0:
				p[j] = fuzzBig
			case levels > 1:
				p[j] = float64(int(b)%levels) / float64(levels-1)
			}
		}
		pts[i] = p
	}
	return pts
}

// FuzzSkyline checks every exact entry — Of, OfSubset, ComputeParallel
// and EpsCover at eps = 0 — against the brute-force oracle on
// fuzzer-built grid points with duplicates, zero coordinates and
// float-sum ties.
func FuzzSkyline(f *testing.F) {
	// The two sum-tie cases of TestKernelSumTieExactness at 5 levels
	// (0.25 is level 1, 0.5 level 2, 1 level 4), then a few grids.
	f.Add([]byte{0, 4, 0xF0, 1, 0xF0, 2, 4, 4})
	f.Add([]byte{2, 4, 0xF0, 4, 4, 1, 0xF0, 4, 4, 2, 4, 4, 4, 4})
	f.Add([]byte{1, 2, 0, 1, 2, 2, 1, 0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 2, 1, 0})
	f.Add([]byte{4, 7, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 0, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		if len(pts) == 0 {
			return
		}
		want := brute(pts)
		all := make([]int, len(pts))
		for i := range all {
			all[i] = i
		}
		for name, run := range map[string]func() ([]int, error){
			"Of":              func() ([]int, error) { return Of(pts) },
			"OfSubset":        func() ([]int, error) { return OfSubset(geom.Flatten(pts), all) },
			"ComputeParallel": func() ([]int, error) { return ComputeParallel(pts, 2) },
			"EpsCover":        func() ([]int, error) { return EpsCover(pts, 0, len(pts), 0) },
		} {
			got, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			equalInts(t, name, got, want)
		}
		// A proper subset: the even indices, mapped back.
		var even []int
		var sub []geom.Vector
		for i := 0; i < len(pts); i += 2 {
			even = append(even, i)
			sub = append(sub, pts[i])
		}
		wantSub := brute(sub)
		for k, i := range wantSub {
			wantSub[k] = even[i]
		}
		got, err := OfSubset(geom.Flatten(pts), even)
		if err != nil {
			t.Fatal(err)
		}
		equalInts(t, "OfSubset(even)", got, wantSub)
	})
}
