//go:build kregretdebug

package assert

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// mustPanic runs f and fails the test unless it panics with the
// invariant-violation prefix.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: expected panic, got none", name)
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "kregret invariant violated: ") {
			t.Errorf("%s: unexpected panic value %v", name, r)
		}
	}()
	f()
}

// mustNotPanic runs f and fails the test if it panics.
func mustNotPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: unexpected panic %v", name, r)
		}
	}()
	f()
}

func TestEnabledOn(t *testing.T) {
	if !Enabled {
		t.Fatal("Enabled must be true under the kregretdebug tag")
	}
}

func TestThat(t *testing.T) {
	mustNotPanic(t, "true cond", func() { That(true, "unused") })
	mustPanic(t, "false cond", func() { That(false, "value %d", 7) })
}

func TestFinite(t *testing.T) {
	mustNotPanic(t, "finite", func() { Finite("x", 1.5) })
	mustPanic(t, "nan", func() { Finite("x", math.NaN()) })
	mustPanic(t, "+inf", func() { Finite("x", math.Inf(1)) })
	mustPanic(t, "-inf", func() { Finite("x", math.Inf(-1)) })
}

func TestUnitRange(t *testing.T) {
	eps := 1e-9
	mustNotPanic(t, "interior", func() { UnitRange("r", 0.5, eps) })
	mustNotPanic(t, "lower tolerance", func() { UnitRange("r", -eps/2, eps) })
	mustNotPanic(t, "upper tolerance", func() { UnitRange("r", 1+eps/2, eps) })
	mustPanic(t, "below", func() { UnitRange("r", -2*eps, eps) })
	mustPanic(t, "above", func() { UnitRange("r", 1+2*eps, eps) })
	mustPanic(t, "nan", func() { UnitRange("r", math.NaN(), eps) })
	mustPanic(t, "+inf", func() { UnitRange("r", math.Inf(1), eps) })
}

func TestNonNegVector(t *testing.T) {
	eps := 1e-9
	mustNotPanic(t, "non-negative", func() { NonNegVector("n", geom.Vector{0, 0.3, 1}, eps) })
	mustNotPanic(t, "within tolerance", func() { NonNegVector("n", geom.Vector{-eps / 2, 1}, eps) })
	mustPanic(t, "negative component", func() { NonNegVector("n", geom.Vector{0.5, -0.5}, eps) })
	mustPanic(t, "nan component", func() { NonNegVector("n", geom.Vector{math.NaN()}, eps) })
}

func TestFeasible(t *testing.T) {
	eps := 1e-9
	mustNotPanic(t, "feasible basis", func() { Feasible("b", []float64{0, 1, 2.5, -eps / 2}, eps) })
	mustPanic(t, "negative basic value", func() { Feasible("b", []float64{1, -0.2}, eps) })
	mustPanic(t, "nan basic value", func() { Feasible("b", []float64{math.NaN()}, eps) })
}
