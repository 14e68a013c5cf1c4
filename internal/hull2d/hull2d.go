// Package hull2d implements exact two-dimensional convex hull
// construction (Andrew's monotone chain) plus the specialized
// orthotope-hull operations the k-regret query needs when d = 2.
//
// In two dimensions everything the paper does with the general
// machinery has a closed form: the faces of Conv(S) not through the
// origin form a staircase-free upper-right chain, critical ratios are
// segment/ray intersections, and the set D_conv is the chain's vertex
// set. The 2-D visualizer draws the chain, and internal/core's tests
// use it as an independent oracle for the d-dimensional dual
// (package dd) on planar inputs.
package hull2d

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// ErrNeed2D is returned when an input point is not two-dimensional.
var ErrNeed2D = errors.New("hull2d: points must be 2-dimensional")

// Point is a 2-D point.
type Point struct{ X, Y float64 }

// cross returns the z-component of (b−a)×(c−a); positive when a→b→c
// turns counter-clockwise.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Hull returns the convex hull of pts in counter-clockwise order
// starting from the lexicographically smallest point. Collinear
// points on the hull boundary are excluded. Duplicate input points
// are tolerated. For fewer than 3 distinct points it returns the
// distinct points sorted lexicographically.
func Hull(pts []Point) []Point {
	ps := append([]Point(nil), pts...)
	sort.Slice(ps, func(i, j int) bool {
		// Exact ordered comparisons keep the order transitive.
		if ps[i].X < ps[j].X {
			return true
		}
		if ps[i].X > ps[j].X {
			return false
		}
		return ps[i].Y < ps[j].Y
	})
	// Dedupe.
	uniq := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	n := len(ps)
	if n < 3 {
		return append([]Point(nil), ps...)
	}
	hull := make([]Point, 0, 2*n)
	// Lower chain.
	for _, p := range ps {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper chain.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := ps[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// FromVectors converts 2-D geom.Vectors to Points.
func FromVectors(vs []geom.Vector) ([]Point, error) {
	out := make([]Point, len(vs))
	for i, v := range vs {
		if len(v) != 2 {
			return nil, fmt.Errorf("%w: point %d has dimension %d", ErrNeed2D, i, len(v))
		}
		out[i] = Point{v[0], v[1]}
	}
	return out, nil
}

// UpperRightChain returns the faces of Conv(S) (in the paper's sense:
// the convex hull of the orthotope closure of S) that do not pass
// through the origin, as the chain of extreme points ordered by
// decreasing Y / increasing X. The chain starts at (0, maxY) and ends
// at (maxX, 0) conceptually; the returned slice contains only the
// data points on it (the paper's D_conv when S = D).
//
// All coordinates must be positive.
func UpperRightChain(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	var maxX, maxY float64
	for _, p := range pts {
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	// The orthotope closure adds the two axis projections and the
	// origin; the chain we need is the hull part strictly between
	// (0, maxY) and (maxX, 0).
	aug := append(append([]Point(nil), pts...), Point{0, 0}, Point{maxX, 0}, Point{0, maxY})
	h := Hull(aug)
	var chain []Point
	for _, p := range h {
		if p.X > 0 && p.Y > 0 {
			chain = append(chain, p)
		}
	}
	// Order by increasing X (decreasing Y) for deterministic output.
	sort.Slice(chain, func(i, j int) bool { return chain[i].X < chain[j].X })
	return chain
}
