//go:build kregretdebug

// Package assert is the runtime invariant layer of the geometry
// kernel, compiled in only under the `kregretdebug` build tag:
//
//	go test -tags kregretdebug ./...
//
// Without the tag every function is an empty stub and Enabled is a
// false constant, so guarded call sites
//
//	if assert.Enabled {
//		assert.UnitRange("mrr", mrr, geom.LooseEps)
//	}
//
// compile to nothing in release builds. With the tag, a violated
// invariant panics immediately with a descriptive message, turning a
// silent numeric corruption (NaN critical ratio, negative facet
// normal, infeasible simplex basis) into a loud failure at the exact
// step that produced it.
//
// The checked invariants come straight from Peng & Wong (ICDE 2014):
// facet normals stay non-negative, regret ratios stay in [0,1] (up
// to tolerance), and the simplex tableau stays primal-feasible after
// each phase.
package assert

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Enabled reports whether invariant checking is compiled in.
const Enabled = true

// That panics with the formatted message when cond is false.
func That(cond bool, format string, args ...any) {
	if !cond {
		fail(format, args...)
	}
}

// Finite panics when x is NaN or ±Inf.
func Finite(name string, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		fail("%s is not finite: %g", name, x)
	}
}

// UnitRange panics unless x ∈ [−eps, 1+eps] and finite. Regret
// ratios and the mrr of any selection must satisfy this (Lemma 1).
func UnitRange(name string, x, eps float64) {
	if math.IsNaN(x) || x < -eps || x > 1+eps {
		fail("%s = %g outside [0,1] ± %g", name, x, eps)
	}
}

// NonNegVector panics unless every component of v is ≥ −eps. Facet
// normals of the downward-closed hull must satisfy this.
func NonNegVector(name string, v geom.Vector, eps float64) {
	for i, x := range v {
		if math.IsNaN(x) || x < -eps {
			fail("%s has negative or NaN component %d: %g (vector %v)", name, i, x, v)
		}
	}
}

// Feasible panics unless every value is ≥ −eps: the primal
// feasibility of a simplex basis (all basic variables non-negative).
func Feasible(name string, vals []float64, eps float64) {
	for i, v := range vals {
		if math.IsNaN(v) || v < -eps {
			fail("%s infeasible: basic value %d = %g", name, i, v)
		}
	}
}

func fail(format string, args ...any) {
	panic("kregret invariant violated: " + fmt.Sprintf(format, args...))
}
