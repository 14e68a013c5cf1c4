//go:build !kregretdebug

// Release-build stubs: every assertion is an empty function and
// Enabled is a false constant, so `if assert.Enabled { … }` blocks
// are eliminated entirely by the compiler. See assert.go (built under
// the kregretdebug tag) for the real implementations and the package
// documentation.
package assert

import "repro/internal/geom"

// Enabled reports whether invariant checking is compiled in.
const Enabled = false

// That is a no-op without the kregretdebug build tag.
func That(bool, string, ...any) {}

// Finite is a no-op without the kregretdebug build tag.
func Finite(string, float64) {}

// UnitRange is a no-op without the kregretdebug build tag.
func UnitRange(string, float64, float64) {}

// NonNegVector is a no-op without the kregretdebug build tag.
func NonNegVector(string, geom.Vector, float64) {}

// Feasible is a no-op without the kregretdebug build tag.
func Feasible(string, []float64, float64) {}
