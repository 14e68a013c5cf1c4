package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randVec draws coordinates from a mix of regimes — ordinary
// positives, negatives, zeros, subnormals and huge magnitudes — so
// the bit-identity checks cover rounding behavior, not just the happy
// path of normalized [0,1] data.
func randVec(rng *rand.Rand, d int) geom.Vector {
	v := make(geom.Vector, d)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = -rng.Float64()
		case 2:
			v[i] = rng.Float64() * 1e12
		case 3:
			v[i] = rng.Float64() * 1e-12
		default:
			v[i] = rng.Float64()
		}
	}
	return v
}

// TestDotRowBitIdentical is the core kernel contract: DotRow must
// reproduce geom.Vector.Dot to the last bit for every dimension the
// solvers use (and beyond the unroll width).
func TestDotRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 31} {
		pts := make([]geom.Vector, 50)
		for i := range pts {
			pts[i] = randVec(rng, d)
		}
		m := FromVectors(pts)
		if m.Rows() != len(pts) || m.Dim() != d {
			t.Fatalf("d=%d: matrix is %dx%d, want %dx%d", d, m.Rows(), m.Dim(), len(pts), d)
		}
		for trial := 0; trial < 20; trial++ {
			w := randVec(rng, d)
			for i, p := range pts {
				want := w.Dot(p)
				got := m.DotRow(w, i)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%d row=%d: DotRow = %x, Vector.Dot = %x", d, i, math.Float64bits(got), math.Float64bits(want))
				}
				if rv := dot(w, m.Row(i)); math.Float64bits(rv) != math.Float64bits(want) {
					t.Fatalf("d=%d row=%d: dot over Row view = %x, want %x", d, i, math.Float64bits(rv), math.Float64bits(want))
				}
			}
		}
	}
}

// TestMaxDotRowsMatchesSequential checks value, argmax, lowest-index
// tie-break and NaN skipping against the reference scan the evaluators
// used before the kernels.
func TestMaxDotRowsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 2, 4, 6, 9} {
		pts := make([]geom.Vector, 200)
		for i := range pts {
			pts[i] = randVec(rng, d)
		}
		// Deliberate duplicates so ties occur.
		copy(pts[150], pts[10])
		copy(pts[151], pts[10])
		m := FromVectors(pts)
		for trial := 0; trial < 30; trial++ {
			w := randVec(rng, d)
			start := rng.Intn(len(pts))
			end := start + rng.Intn(len(pts)-start+1)

			wantArg, wantBest := -1, math.Inf(-1)
			for i := start; i < end; i++ {
				if u := w.Dot(pts[i]); u > wantBest {
					wantBest, wantArg = u, i
				}
			}
			arg, best := m.MaxDotRows(w, start, end)
			if arg != wantArg || math.Float64bits(best) != math.Float64bits(wantBest) {
				t.Fatalf("d=%d [%d,%d): kernel = (%d, %v), reference = (%d, %v)", d, start, end, arg, best, wantArg, wantBest)
			}
		}
	}
}

func TestMaxDotRowsNaN(t *testing.T) {
	pts := []geom.Vector{{1, 2}, {math.NaN(), 1}, {3, 1}}
	m := FromVectors(pts)
	w := geom.Vector{1, 1}
	arg, best := m.MaxDotRows(w, 0, 3)
	if arg != 2 || best != 4 {
		t.Fatalf("NaN row must be skipped: got (%d, %v), want (2, 4)", arg, best)
	}
	// All-NaN range yields the sentinel, never a NaN max.
	arg, best = m.MaxDotRows(w, 1, 2)
	if arg != -1 || !math.IsInf(best, -1) {
		t.Fatalf("all-NaN range = (%d, %v), want (-1, -Inf)", arg, best)
	}
	// Empty range too.
	arg, best = m.MaxDotRows(w, 2, 2)
	if arg != -1 || !math.IsInf(best, -1) {
		t.Fatalf("empty range = (%d, %v), want (-1, -Inf)", arg, best)
	}
}

// TransposeVectors copies the m column vectors (each of dimension d)
// into a fresh column-major matrix. cols may be empty; a dimension
// mismatch panics like geom.Vector.Dot does.
func TransposeVectors(d int, cols []geom.Vector) *Transposed {
	t := &Transposed{data: make([]float64, d*len(cols)), d: d, m: len(cols)}
	for c, v := range cols {
		if len(v) != d {
			panic(fmt.Sprintf("mat: TransposeVectors column %d has dimension %d, want %d", c, len(v), d))
		}
		for j, x := range v {
			t.data[j*t.m+c] = x
		}
	}
	return t
}

// TestMaxDotColsBitIdentical: the transposed support kernel must
// reproduce, per column, geom.Vector.Dot(col, q) bit for bit, and its
// reduction must agree with a first-max sequential scan in column
// order — the exact semantics of dd.Polytope.MaxDot.
func TestMaxDotColsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 4, 6} {
		for _, nCols := range []int{0, 1, 2, 3, 4, 5, 8, 17, 64} {
			cols := make([]geom.Vector, nCols)
			for c := range cols {
				cols[c] = randVec(rng, d)
			}
			tm := TransposeVectors(d, cols)
			if tm.Cols() != nCols || tm.d != d {
				t.Fatalf("transposed is %dx%d, want %dx%d", tm.d, tm.Cols(), d, nCols)
			}
			for trial := 0; trial < 20; trial++ {
				q := randVec(rng, d)
				wantArg, wantBest := -1, math.Inf(-1)
				for c, v := range cols {
					if u := v.Dot(q); u > wantBest {
						wantBest, wantArg = u, c
					}
				}
				arg, best := tm.MaxDotCols(q)
				if arg != wantArg || math.Float64bits(best) != math.Float64bits(wantBest) {
					t.Fatalf("d=%d m=%d: kernel = (%d, %x), reference = (%d, %x)",
						d, nCols, arg, math.Float64bits(best), wantArg, math.Float64bits(wantBest))
				}
			}
		}
	}
}

func TestGather(t *testing.T) {
	pts := []geom.Vector{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	m := FromVectors(pts)
	g, err := m.Gather([]int{3, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 3 || g.Dim() != 2 {
		t.Fatalf("gathered matrix is %dx%d, want 3x2", g.Rows(), g.Dim())
	}
	for i, want := range []geom.Vector{{7, 8}, {1, 2}, {7, 8}} {
		for j, x := range want {
			if g.Row(i)[j] != x {
				t.Fatalf("gathered row %d = %v, want %v", i, g.Row(i), want)
			}
		}
	}
	if _, err := m.Gather([]int{4}); err == nil {
		t.Fatal("Gather with out-of-range row must error")
	}
	if _, err := m.Gather([]int{-1}); err == nil {
		t.Fatal("Gather with negative row must error")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	m := FromVectors([]geom.Vector{{1, 2, 3}})
	for name, fn := range map[string]func(){
		"DotRow":     func() { m.DotRow([]float64{1, 2}, 0) },
		"MaxDotRows": func() { m.MaxDotRows([]float64{1}, 0, 1) },
		"FromVectors": func() {
			FromVectors([]geom.Vector{{1, 2}, {1, 2, 3}})
		},
		"TransposeVectors": func() {
			TransposeVectors(2, []geom.Vector{{1, 2, 3}})
		},
		"MaxDotCols": func() {
			TransposeVectors(2, []geom.Vector{{1, 2}}).MaxDotCols([]float64{1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: dimension mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzKernels is the bit-for-bit differential fuzz target from the
// issue: arbitrary coordinate bytes (including NaN/Inf patterns) must
// never produce a kernel result that differs from geom.Vector.Dot.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 248, 127}) // NaN
	f.Add(uint8(3), make([]byte, 8*9))
	f.Fuzz(func(t *testing.T, dRaw uint8, raw []byte) {
		d := int(dRaw)%8 + 1
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[i*8+b]) << (8 * b)
			}
			vals[i] = math.Float64frombits(bits)
		}
		if len(vals) < 2*d {
			return
		}
		w := geom.Vector(vals[:d])
		rows := (len(vals) - d) / d
		pts := make([]geom.Vector, rows)
		for i := range pts {
			pts[i] = geom.Vector(vals[d+i*d : d+(i+1)*d])
		}
		m := FromVectors(pts)
		wantArg, wantBest := -1, math.Inf(-1)
		for i, p := range pts {
			want := w.Dot(p)
			got := m.DotRow(w, i)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d: DotRow %x != Dot %x", i, math.Float64bits(got), math.Float64bits(want))
			}
			if want > wantBest {
				wantBest, wantArg = want, i
			}
		}
		arg, best := m.MaxDotRows(w, 0, rows)
		if arg != wantArg || math.Float64bits(best) != math.Float64bits(wantBest) {
			t.Fatalf("MaxDotRows = (%d, %x), reference = (%d, %x)", arg, math.Float64bits(best), wantArg, math.Float64bits(wantBest))
		}

		tm := TransposeVectors(d, pts)
		cArg, cBest := tm.MaxDotCols(w)
		if cArg != wantArg || math.Float64bits(cBest) != math.Float64bits(wantBest) {
			t.Fatalf("MaxDotCols = (%d, %x), reference = (%d, %x)", cArg, math.Float64bits(cBest), wantArg, math.Float64bits(wantBest))
		}
	})
}
