//go:build !kregretdebug

package assert

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// Without the kregretdebug tag every assertion must be a silent no-op
// even on wildly invalid inputs, and Enabled must be a false constant
// so `if assert.Enabled { … }` blocks vanish in release builds.
func TestDisabledStubsAreNoOps(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the kregretdebug tag")
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("release-build stub panicked: %v", r)
		}
	}()
	That(false, "would panic under kregretdebug")
	Finite("x", math.NaN())
	UnitRange("r", math.Inf(1), 1e-9)
	NonNegVector("n", geom.Vector{-1, math.NaN()}, 1e-9)
	Feasible("b", []float64{-1}, 1e-9)
}
