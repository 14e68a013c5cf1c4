package geom

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	// A power-of-two epsilon keeps the boundary arithmetic exact, so
	// the |a−b| == eps cases test the boundary and not rounding noise.
	eps := 0.25
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		a, b float64
		want bool
	}{
		{"identical", 0.5, 0.5, true},
		{"exact boundary |a-b| == eps", 1, 1 + eps, true},
		{"just inside", 1, 1 + eps/2, true},
		{"just outside", 1, 1 + 2*eps, false},
		{"negative side boundary", -1 - eps, -1, true},
		{"far apart", 0, 1, false},
		{"both zero signed", 0.0, math.Copysign(0, -1), true},
		{"nan left", nan, 0, false},
		{"nan right", 0, nan, false},
		{"nan both", nan, nan, false},
		{"inf vs inf", inf, inf, false}, // Inf−Inf = NaN: not equal
		{"inf vs finite", inf, 1, false},
		{"-inf vs finite", -inf, 1, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, eps); got != c.want {
			t.Errorf("%s: ApproxEqual(%g, %g, %g) = %v, want %v", c.name, c.a, c.b, eps, got, c.want)
		}
	}
}

func TestZero(t *testing.T) {
	eps := 1e-9
	cases := []struct {
		name string
		x    float64
		want bool
	}{
		{"exact zero", 0, true},
		{"negative zero", math.Copysign(0, -1), true},
		{"exact boundary +eps", eps, true},
		{"exact boundary -eps", -eps, true},
		{"just outside", 2 * eps, false},
		{"one", 1, false},
		{"nan", math.NaN(), false},
		{"+inf", math.Inf(1), false},
		{"-inf", math.Inf(-1), false},
	}
	for _, c := range cases {
		if got := Zero(c.x, eps); got != c.want {
			t.Errorf("%s: Zero(%g, %g) = %v, want %v", c.name, c.x, eps, got, c.want)
		}
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct {
		name  string
		x     float64
		want  float64
		isNaN bool
	}{
		{x: -0.1, want: 0, name: "below"},
		{x: 0, want: 0, name: "lower boundary"},
		{x: 0.5, want: 0.5, name: "interior"},
		{x: 1, want: 1, name: "upper boundary"},
		{x: 1.1, want: 1, name: "above"},
		{x: math.Inf(-1), want: 0, name: "-inf"},
		{x: math.Inf(1), want: 1, name: "+inf"},
		// NaN compares false to every bound, so it passes through —
		// callers must guard NaN before clamping.
		{x: math.NaN(), isNaN: true, name: "nan passes through"},
	}
	for _, c := range cases {
		got := Clamp01(c.x)
		if c.isNaN {
			if !math.IsNaN(got) {
				t.Errorf("%s: Clamp01(NaN) = %g, want NaN", c.name, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: Clamp01(%g) = %g, want %g", c.name, c.x, got, c.want)
		}
	}
}

func TestRelEpsBoundaries(t *testing.T) {
	eps := 1e-9
	cases := []struct {
		name string
		a, b float64
		want float64
	}{
		{"both zero", 0, 0, eps},
		{"unit scale", 1, 0, 2 * eps},
		{"larger magnitude wins", -3, 2, 4 * eps},
		{"big operands scale up", 1e6, 0, eps * (1 + 1e6)},
	}
	for _, c := range cases {
		if got := RelEps(c.a, c.b, eps); !ApproxEqual(got, c.want, 1e-18) {
			t.Errorf("%s: RelEps(%g, %g, %g) = %g, want %g", c.name, c.a, c.b, eps, got, c.want)
		}
	}
	if got := RelEps(math.Inf(1), 0, eps); !math.IsInf(got, 1) {
		t.Errorf("RelEps(+Inf, 0, eps) = %g, want +Inf", got)
	}
	if got := RelEps(math.NaN(), 0, eps); !math.IsNaN(got) {
		t.Errorf("RelEps(NaN, 0, eps) = %g, want NaN", got)
	}
}

// TestEpsOrdering pins the relation between the two package
// tolerances that the analyzers and assertions rely on.
func TestEpsOrdering(t *testing.T) {
	if !(Eps > 0 && LooseEps > Eps && LooseEps < 1) {
		t.Fatalf("tolerance ordering broken: Eps=%g LooseEps=%g", Eps, LooseEps)
	}
}
