package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// TestFromRowsGather: a matrix over rows shares their array, and
// Gather copies the named rows out in order, refusing indices out of
// range.
func TestFromRowsGather(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Vector, 20)
	for i := range pts {
		pts[i] = randVec(rng, 3)
	}
	rows := geom.Flatten(pts)
	full := FromRows(rows)
	if full.Rows() != 20 || full.Dim() != 3 || &full.data[0] != &rows.Data()[0] {
		t.Fatalf("FromRows is %dx%d, want 20x3 over the rows' own array", full.Rows(), full.Dim())
	}
	idx := []int{5, 0, 19, 5, 7}
	m, err := full.Gather(idx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != len(idx) || m.Dim() != 3 {
		t.Fatalf("shape %dx%d, want %dx3", m.Rows(), m.Dim(), len(idx))
	}
	for k, r := range idx {
		row := m.Row(k)
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(pts[r][j]) {
				t.Fatalf("row %d (src %d) coord %d: %v vs %v", k, r, j, row[j], pts[r][j])
			}
		}
	}
	if _, err := full.Gather([]int{20}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := full.Gather([]int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if m, err := full.Gather(nil); err != nil || m.Rows() != 0 {
		t.Fatalf("empty gather: %v, %d rows", err, m.Rows())
	}
}

func TestComponentMaxInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Vector, 12)
	for i := range pts {
		pts[i] = randVec(rng, 4)
	}
	m := FromVectors(pts)
	dst := make([]float64, 4)
	m.ComponentMaxInto(3, 9, dst)
	for j := 0; j < 4; j++ {
		want := pts[3][j]
		for i := 4; i < 9; i++ {
			if pts[i][j] > want {
				want = pts[i][j]
			}
		}
		if math.Float64bits(dst[j]) != math.Float64bits(want) {
			t.Fatalf("coord %d: %v vs %v", j, dst[j], want)
		}
	}
	for _, fn := range []func(){
		func() { m.ComponentMaxInto(5, 5, dst) },
		func() { m.ComponentMaxInto(-1, 3, dst) },
		func() { m.ComponentMaxInto(0, 13, dst) },
		func() { m.ComponentMaxInto(0, 3, dst[:2]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad range/dst accepted")
				}
			}()
			fn()
		}()
	}
}

// TestDominatesRowsMatchesGeom pins decision-identity with
// geom.Dominates across dimensions, including the branch-free d=4
// fast path, on adversarial values (negatives, zeros, huge, tiny).
func TestDominatesRowsMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20000; trial++ {
		d := 1 + rng.Intn(6)
		a, b := randVec(rng, d), randVec(rng, d)
		if rng.Intn(3) == 0 {
			copy(b, a) // force equal prefixes to hit tie paths
			if rng.Intn(2) == 0 && d > 1 {
				b[rng.Intn(d)] = a[0]
			}
		}
		want := geom.Dominates(a, b)
		if got := DominatesRows(a, b); got != want {
			t.Fatalf("d=%d a=%v b=%v: DominatesRows %v, geom.Dominates %v", d, a, b, got, want)
		}
	}
}

// TestDominatesRowsNaN: NaN coordinates must never let a row dominate
// (matching geom.Dominates' comparison semantics where every NaN
// comparison is false), in both the generic and d=4 paths.
func TestDominatesRowsNaN(t *testing.T) {
	nan := math.NaN()
	for _, d := range []int{3, 4} {
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i], b[i] = 2, 1
		}
		a[d-1] = nan
		if DominatesRows(a, b) {
			t.Fatalf("d=%d: NaN dominator won", d)
		}
		a[d-1] = 2
		b[d-1] = nan
		if DominatesRows(a, b) {
			t.Fatalf("d=%d: NaN dominated lost", d)
		}
	}
}

func TestDominatesRowsDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	DominatesRows([]float64{1, 2}, []float64{1})
}

// TestSortIdxByFloatDesc checks the radix order against sort.SliceStable
// on mixed-sign data, including ±0 and equal keys (stability).
func TestSortIdxByFloatDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = 0
			case 1:
				vals[i] = math.Copysign(0, -1)
			case 2:
				vals[i] = -rng.Float64() * 1e6
			default:
				vals[i] = rng.Float64() * 1e6
			}
			if rng.Intn(4) == 0 && i > 0 {
				vals[i] = vals[rng.Intn(i)] // force duplicates
			}
		}
		got := make([]int32, n)
		want := make([]int32, n)
		for i := range got {
			got[i] = int32(i)
			want[i] = int32(i)
		}
		if err := SortIdxByFloatDesc(vals, got); err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(want, func(a, b int) bool { return vals[want[a]] > vals[want[b]] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: %d vs %d (vals %v vs %v)",
					trial, i, got[i], want[i], vals[got[i]], vals[want[i]])
			}
		}
	}
	vals := []float64{1, math.NaN(), 2}
	idxs := []int32{0, 1, 2}
	if err := SortIdxByFloatDesc(vals, idxs); err == nil {
		t.Fatal("NaN key accepted")
	}
}
