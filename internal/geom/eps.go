package geom

import "math"

// Eps is the default absolute tolerance used throughout the library
// for comparing derived floating-point quantities (dot products,
// critical ratios, facet offsets). Input coordinates are normalized
// to (0,1], so an absolute tolerance is appropriate.
const Eps = 1e-9

// LooseEps is a relaxed tolerance used where quantities accumulate
// error across many operations (e.g. comparing regret ratios computed
// by two independent methods).
const LooseEps = 1e-6

// ApproxEqual reports |a − b| ≤ eps.
func ApproxEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Zero reports |a| ≤ eps.
func Zero(a, eps float64) bool { return math.Abs(a) <= eps }

// Clamp01 clamps x to the interval [0, 1].
func Clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// RelEps returns a tolerance scaled to the magnitude of the operands:
// eps·(1 + max(|a|, |b|)). Use when comparing quantities that may
// leave the unit range.
func RelEps(a, b, eps float64) float64 {
	m := math.Abs(a)
	if v := math.Abs(b); v > m {
		m = v
	}
	return eps * (1 + m)
}
