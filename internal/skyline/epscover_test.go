package skyline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// coverHolds reports whether every point of pts[lo:hi] is eps-covered
// by some survivor: r ≥ (1−eps)·q componentwise — the one property
// EpsCover promises for eps > 0.
func coverHolds(pts []geom.Vector, lo, hi int, surv []int, eps float64) (int, bool) {
	scale := 1 - eps
	for k := lo; k < hi; k++ {
		q := pts[k]
		covered := false
		for _, r := range surv {
			ok := true
			for j := range q {
				if pts[r][j] < scale*q[j] {
					ok = false
					break
				}
			}
			if ok {
				covered = true
				break
			}
		}
		if !covered {
			return k, false
		}
	}
	return -1, true
}

// TestEpsCoverProperty brute-verifies the cover guarantee across
// distributions, dimensions (the d=4 fast path and the generic one)
// and eps values, and pins the structural contracts: survivors are
// ascending, in range, duplicate-free, and within the probed window.
func TestEpsCoverProperty(t *testing.T) {
	for _, g := range kernelGens {
		for _, d := range []int{2, 4, 5} {
			for _, eps := range []float64{0.01, 0.05, 0.2, 0.6} {
				pts, err := g.fn(900, d, int64(37*d)+int64(eps*1000))
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := 100, 800
				surv, err := EpsCover(pts, lo, hi, eps)
				if err != nil {
					t.Fatal(err)
				}
				if len(surv) == 0 {
					t.Fatalf("%s d=%d eps=%v: empty cover of a non-empty range", g.name, d, eps)
				}
				for i, s := range surv {
					if s < lo || s >= hi {
						t.Fatalf("%s d=%d eps=%v: survivor %d outside [%d, %d)", g.name, d, eps, s, lo, hi)
					}
					if i > 0 && surv[i-1] >= s {
						t.Fatalf("%s d=%d eps=%v: survivors not strictly ascending at %d", g.name, d, eps, i)
					}
				}
				if k, ok := coverHolds(pts, lo, hi, surv, eps); !ok {
					t.Fatalf("%s d=%d eps=%v: point %d not eps-covered by %d survivors",
						g.name, d, eps, k, len(surv))
				}
			}
		}
	}
}

// TestEpsCoverZeroIsSkyline pins the eps = 0 degeneration: the cover
// of a full range must equal the exact skyline index-for-index — the
// property the sharded S=1 byte-identity contract stands on.
func TestEpsCoverZeroIsSkyline(t *testing.T) {
	for _, g := range kernelGens {
		for _, d := range []int{2, 4} {
			pts, err := g.fn(1200, d, int64(11*d))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Of(pts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EpsCover(pts, 0, len(pts), 0)
			if err != nil {
				t.Fatal(err)
			}
			equalInts(t, g.name+"/eps0", got, want)
		}
	}
}

// TestEpsCoverShrinks checks the economic point of the pass: a looser
// eps never yields more survivors than the exact skyline of the same
// range, and survivor counts are deterministic across repeat calls.
func TestEpsCoverShrinks(t *testing.T) {
	pts, err := dataset.AntiCorrelated(4000, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := EpsCover(pts, 0, len(pts), 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := len(exact)
	for _, eps := range []float64{0.02, 0.1, 0.4} {
		surv, err := EpsCover(pts, 0, len(pts), eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(surv) > prev {
			t.Fatalf("eps=%v: %d survivors, more than %d at tighter eps", eps, len(surv), prev)
		}
		again, err := EpsCover(pts, 0, len(pts), eps)
		if err != nil {
			t.Fatal(err)
		}
		equalInts(t, "deterministic", again, surv)
		prev = len(surv)
	}
}

// TestEpsCoverSmallRangeAllocs pins the killer cache's sizing from n:
// a 1,000-point range, the size of a small shard, allocates a cache of
// a few hundred cells, so the whole call stays under 1 MB where the
// full 48³-cell grid alone is 3.5 MB at d = 4.
func TestEpsCoverSmallRangeAllocs(t *testing.T) {
	pts, err := dataset.AntiCorrelated(3000, 4, 41)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := EpsCover(pts, 1000, 2000, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("EpsCover of a 1,000-point range allocated %d bytes per call, want under 1 MB", got)
	}
}

// TestEpsCoverBadInput exercises every rejection edge: eps outside
// [0, 1) or NaN, ranges outside the slice, inverted ranges,
// dimension mismatches and non-finite coordinates inside the range —
// all typed ErrBadInput — plus the empty-range success case.
func TestEpsCoverBadInput(t *testing.T) {
	pts := []geom.Vector{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}
	for _, eps := range []float64{-0.01, 1, 1.5, math.NaN()} {
		if _, err := EpsCover(pts, 0, len(pts), eps); !errors.Is(err, ErrBadInput) {
			t.Fatalf("eps=%v: err = %v, want ErrBadInput", eps, err)
		}
	}
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		if _, err := EpsCover(pts, r[0], r[1], 0.1); !errors.Is(err, ErrBadInput) {
			t.Fatalf("range %v: err = %v, want ErrBadInput", r, err)
		}
	}
	surv, err := EpsCover(pts, 1, 1, 0.1)
	if err != nil || surv != nil {
		t.Fatalf("empty range: got %v, %v; want nil, nil", surv, err)
	}
	ragged := []geom.Vector{{0.1, 0.2}, {0.3}, {0.5, 0.6}}
	if _, err := EpsCover(ragged, 0, len(ragged), 0.1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("ragged: err = %v, want ErrBadInput", err)
	}
	for _, eps := range []float64{0, 0.1} {
		if _, err := EpsCover([]geom.Vector{{}, {}}, 0, 2, eps); !errors.Is(err, ErrBadInput) {
			t.Fatalf("zero-dimensional at eps %v: err = %v, want ErrBadInput", eps, err)
		}
	}
	raggedD4 := []geom.Vector{{1, 2, 3, 4}, {1, 2, 3}}
	if _, err := EpsCover(raggedD4, 0, len(raggedD4), 0.1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("ragged d4: err = %v, want ErrBadInput", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		nf := []geom.Vector{{0.1, 0.2}, {bad, 0.4}}
		if _, err := EpsCover(nf, 0, len(nf), 0.1); !errors.Is(err, ErrBadInput) {
			t.Fatalf("non-finite %v: err = %v, want ErrBadInput", bad, err)
		}
		// Outside the range the bad point must not be touched.
		if _, err := EpsCover(nf, 0, 1, 0.1); err != nil {
			t.Fatalf("non-finite outside range: unexpected err %v", err)
		}
	}
	huge := []geom.Vector{{math.MaxFloat64, math.MaxFloat64}, {0.1, 0.2}}
	if _, err := EpsCover(huge, 0, len(huge), 0.1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("sum overflow: err = %v, want ErrBadInput", err)
	}
}

// TestOfSubset pins the subset skyline against filtering the direct
// skyline of the gathered points, and its index validation.
func TestOfSubset(t *testing.T) {
	pts, err := dataset.Independent(600, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	subset := make([]int, 0, 300)
	for i := 0; i < len(pts); i += 2 {
		subset = append(subset, i)
	}
	got, err := OfSubset(geom.Flatten(pts), subset)
	if err != nil {
		t.Fatal(err)
	}
	sub := make([]geom.Vector, len(subset))
	for k, i := range subset {
		sub[k] = pts[i]
	}
	local, err := Of(sub)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(local))
	for k, i := range local {
		want[k] = subset[i]
	}
	equalInts(t, "subset-vs-gathered", got, want)

	for _, bad := range [][]int{{-1}, {len(pts)}} {
		if _, err := OfSubset(geom.Flatten(pts), bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("subset %v: err = %v, want ErrBadInput", bad, err)
		}
	}
	empty, err := OfSubset(geom.Flatten(pts), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty subset: got %v, %v; want empty, nil", empty, err)
	}
}
