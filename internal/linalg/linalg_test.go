package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At broken")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatal("wrong content")
	}
	if _, err := NewMatrixFromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("expected ragged-row error")
	}
}

func TestMul(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSolveSimple(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestSolveNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestDet(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	d, err := Det(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-(-2)) > 1e-12 {
		t.Fatalf("Det = %v, want -2", d)
	}
	s, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	d, err = Det(s)
	if err != nil || d != 0 {
		t.Fatalf("singular Det = (%v, %v), want (0, nil)", d, err)
	}
	if d, _ := Det(Identity(5)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("det(I) = %v", d)
	}
}

func TestInverse(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-12 {
				t.Fatalf("A·A⁻¹[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestRank(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}})
	if r := Rank(a, 1e-9); r != 2 {
		t.Fatalf("Rank = %d, want 2", r)
	}
	if r := Rank(Identity(4), 1e-9); r != 4 {
		t.Fatalf("Rank(I4) = %d", r)
	}
	if r := Rank(NewMatrix(3, 3), 1e-9); r != 0 {
		t.Fatalf("Rank(0) = %d", r)
	}
	// Rectangular.
	b, _ := NewMatrixFromRows([][]float64{{1, 0, 0}, {0, 1, 0}})
	if r := Rank(b, 1e-9); r != 2 {
		t.Fatalf("Rank(rect) = %d", r)
	}
}

// TestSolveRandomRoundTrip: A·x = b ⟹ Solve(A, b) ≈ x for random
// well-conditioned systems.
func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost for conditioning.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b, _ := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

// Determinant is multiplicative: det(AB) = det(A)·det(B).
func TestDetMultiplicativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a, b := NewMatrix(n, n), NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		ab, _ := a.Mul(b)
		da, _ := Det(a)
		db, _ := Det(b)
		dab, _ := Det(ab)
		return math.Abs(dab-da*db) <= 1e-6*(1+math.Abs(dab))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rankRef and solveRef are the clone-based eliminations Rank and Solve
// ran before the in-place forms existed, kept as oracles: the in-place
// kernels must choose the same pivots and perform the same operations
// in the same order, so every result matches bit for bit.
func rankRef(a *Matrix, tol float64) int {
	m := a.Clone()
	rank := 0
	rows, cols := m.Rows, m.Cols
	for col := 0; col < cols && rank < rows; col++ {
		p, best := -1, tol
		for r := rank; r < rows; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if p < 0 {
			continue
		}
		if p != rank {
			swapRows(m, p, rank)
		}
		inv := 1 / m.At(rank, col)
		for r := 0; r < rows; r++ {
			if r == rank {
				continue
			}
			f := m.At(r, col) * inv
			for c := col; c < cols; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(rank, c))
			}
		}
		rank++
	}
	return rank
}

func solveRef(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		p, best := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best < singularTol {
			return nil, ErrSingular
		}
		if p != col {
			swapRows(lu, p, col)
			pivot[p], pivot[col] = pivot[col], pivot[p]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			for c := col + 1; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-f*lu.At(col, c))
			}
		}
	}
	x := make([]float64, n)
	for i, p := range pivot {
		x[i] = b[p]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu.At(i, j) * x[j]
		}
		x[i] = s / lu.At(i, i)
	}
	return x, nil
}

// checkKernels compares Rank and RankInPlace with rankRef at several
// tolerances and, for square a, Solve and FactorInPlace+SolveInto
// (through the shared f, so pivot storage is reused across sizes)
// with solveRef: same rank, same ErrSingular verdict, same bits.
func checkKernels(t *testing.T, name string, f *LU, a *Matrix, b []float64) {
	t.Helper()
	orig := a.Clone()
	for _, tol := range []float64{1e-9, singularTol, 0} {
		want := rankRef(a, tol)
		if got := Rank(a, tol); got != want {
			t.Fatalf("%s: Rank(tol=%g) = %d, reference %d", name, tol, got, want)
		}
		if got := RankInPlace(a.Clone(), tol); got != want {
			t.Fatalf("%s: RankInPlace(tol=%g) = %d, reference %d", name, tol, got, want)
		}
	}
	if a.Rows != a.Cols {
		return
	}
	want, wantErr := solveRef(a, b)
	same := func(kernel string, got []float64, err error) {
		t.Helper()
		if errors.Is(err, ErrSingular) != errors.Is(wantErr, ErrSingular) {
			t.Fatalf("%s: %s error %v, reference %v", name, kernel, err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", name, kernel, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s x[%d] = %v, reference %v", name, kernel, i, got[i], want[i])
			}
		}
	}
	got, err := Solve(a, b)
	same("Solve", got, err)
	x := make([]float64, a.Rows)
	err = f.FactorInPlace(a.Clone())
	if err == nil {
		err = f.SolveInto(x, b)
	}
	same("FactorInPlace+SolveInto", x, err)
	for i := range orig.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(orig.Data[i]) {
			t.Fatalf("%s: Rank or Solve modified its input", name)
		}
	}
}

// TestInPlaceKernelsTable pins the in-place kernels to the references
// on hand-built edge cases: rank-deficient and rectangular matrices,
// entries at the rank tolerance, and LU pivots just above, at and
// just below singularTol.
func TestInPlaceKernelsTable(t *testing.T) {
	near := func(p float64) [][]float64 { return [][]float64{{1, 2}, {1, 2 + p}} }
	cases := []struct {
		name string
		rows [][]float64
	}{
		{"identity", [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}},
		{"zero", [][]float64{{0, 0}, {0, 0}}},
		{"duplicate rows", [][]float64{{1, 2, 3}, {1, 2, 3}, {0, 1, 1}}},
		{"row combination", [][]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}},
		{"zero column", [][]float64{{0, 1, 2}, {0, 3, 4}, {0, 5, 7}}},
		{"needs pivoting", [][]float64{{0, 1}, {1, 0}}},
		{"tall", [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 3}}},
		{"wide deficient", [][]float64{{1, 2, 3, 4}, {2, 4, 6, 8}}},
		{"entry at rank tol", [][]float64{{1e-9, 0}, {0, 1}}},
		{"entry above rank tol", [][]float64{{1.0000001e-9, 0}, {0, 1}}},
		{"pivot at singularTol", [][]float64{{singularTol, 0}, {0, 1}}},
		{"pivot below singularTol", [][]float64{{0.999999e-12, 0}, {0, 1}}},
		{"eliminated pivot above singularTol", near(1.5e-12)},
		{"eliminated pivot near singularTol", near(1e-12)},
		{"eliminated pivot below singularTol", near(0.5e-12)},
	}
	var f LU
	for _, tc := range cases {
		a, err := NewMatrixFromRows(tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = float64(i) + 0.5
		}
		checkKernels(t, tc.name, &f, a, b)
	}
}

// TestInPlaceKernelsRandom compares the kernels with the references on
// seeded random matrices: full rank, low rank (products of thin
// factors) and with one row scaled toward the singularity threshold.
func TestInPlaceKernelsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var f LU
	singular := 0
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		if trial%2 == 0 {
			cols = rows
		}
		a := NewMatrix(rows, cols)
		switch trial % 3 {
		case 0:
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
		case 1:
			k := rng.Intn(min(rows, cols) + 1)
			l, r := NewMatrix(rows, k), NewMatrix(k, cols)
			for i := range l.Data {
				l.Data[i] = rng.NormFloat64()
			}
			for i := range r.Data {
				r.Data[i] = rng.NormFloat64()
			}
			a, _ = l.Mul(r)
		default:
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
			row := a.Row(rng.Intn(rows))
			scale := singularTol * math.Pow(10, 2*rng.Float64()-1)
			for j := range row {
				row[j] *= scale
			}
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if rows == cols {
			if _, err := solveRef(a, b); errors.Is(err, ErrSingular) {
				singular++
			}
		}
		checkKernels(t, "random", &f, a, b)
	}
	if singular == 0 {
		t.Fatal("no random system was singular; the ErrSingular path went untested")
	}
}

// TestInPlaceKernelsAllocate: with an LU and a matrix owned by the
// caller, factoring, solving and ranking allocate nothing.
func TestInPlaceKernelsAllocate(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{4, 1, 2}, {1, 5, 3}, {2, 3, 6}})
	m := a.Clone()
	b := []float64{1, 2, 3}
	x := make([]float64, 3)
	var f LU
	allocs := testing.AllocsPerRun(100, func() {
		copy(m.Data, a.Data)
		if f.FactorInPlace(m) != nil || f.SolveInto(x, b) != nil {
			t.Fatal("well-conditioned system reported singular")
		}
		copy(m.Data, a.Data)
		if RankInPlace(m, 1e-9) != 3 {
			t.Fatal("full-rank matrix reported deficient")
		}
	})
	if allocs != 0 {
		t.Fatalf("in-place kernels allocate %v times per run", allocs)
	}
}
