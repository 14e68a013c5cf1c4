package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotBasics(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := v.Dot(make(Vector, 3)); got != 0 {
		t.Fatalf("Dot with zero = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := v.Sum(); got != -1 {
		t.Fatalf("Sum = %v, want -1", got)
	}
}

func TestAddSubScale(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{3, 5}
	if got := v.Add(w); !got.Equal(Vector{4, 7}, 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(Vector{2, 3}, 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(-2); !got.Equal(Vector{-2, -4}, 0) {
		t.Fatalf("Scale = %v", got)
	}
	// Originals untouched.
	if !v.Equal(Vector{1, 2}, 0) || !w.Equal(Vector{3, 5}, 0) {
		t.Fatal("operands modified")
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	n, err := v.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(n.Norm(), 1, 1e-12) {
		t.Fatalf("normalized norm = %v", n.Norm())
	}
	if _, err := (Vector{0, 0}).Normalize(); err == nil {
		t.Fatal("expected error normalizing zero vector")
	}
	if _, err := (Vector{math.Inf(1), 0}).Normalize(); err == nil {
		t.Fatal("expected error normalizing infinite vector")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Fatal("NaN not detected")
	}
	if (Vector{math.Inf(-1)}).IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestPositivity(t *testing.T) {
	if !(Vector{0.1, 2}).AllPositive() {
		t.Fatal("positive vector rejected")
	}
	if (Vector{0, 1}).AllPositive() {
		t.Fatal("zero coordinate accepted as positive")
	}
	if !(Vector{0, 1}).NonNegative(0) {
		t.Fatal("non-negative vector rejected")
	}
	if (Vector{-1e-3, 1}).NonNegative(1e-6) {
		t.Fatal("negative coordinate accepted")
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q Vector
		want bool
	}{
		{Vector{1, 1}, Vector{1, 1}, false},      // equal: no strict dim
		{Vector{2, 1}, Vector{1, 1}, true},       // strictly better on one
		{Vector{2, 0.5}, Vector{1, 1}, false},    // trade-off
		{Vector{2, 2}, Vector{1, 1}, true},       // strictly better on all
		{Vector{1, 2}, Vector{1, 1}, true},       // equal on one, better on other
		{Vector{0.9, 2}, Vector{1, 1.5}, false},  // worse on one
		{Vector{1, 1, 1}, Vector{1, 1, 0}, true}, // 3-d
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDominatesProperties(t *testing.T) {
	// Irreflexive and antisymmetric on random pairs.
	f := func(a, b [4]float64) bool {
		p := Vector(a[:])
		q := Vector(b[:])
		if Dominates(p, p) {
			return false
		}
		if Dominates(p, q) && Dominates(q, p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotLinearityProperty(t *testing.T) {
	f := func(a, b, c [3]float64, s float64) bool {
		if math.Abs(s) > 1e6 {
			return true
		}
		u, v, w := Vector(a[:]), Vector(b[:]), Vector(c[:])
		for _, x := range append(append(append([]float64{}, a[:]...), b[:]...), c[:]...) {
			if math.Abs(x) > 1e6 || math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		lhs := u.Add(v.Scale(s)).Dot(w)
		rhs := u.Dot(w) + s*v.Dot(w)
		return ApproxEqual(lhs, rhs, 1e-6*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSameDim(t *testing.T) {
	if err := CheckSameDim(Vector{1}, Vector{2}); err != nil {
		t.Fatal(err)
	}
	if err := CheckSameDim(Vector{1}, Vector{1, 2}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestVectorString(t *testing.T) {
	got := Vector{1, 2.5}.String()
	if got != "(1, 2.5)" {
		t.Fatalf("String = %q", got)
	}
}
