package hull2d

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	h := Hull(pts)
	if len(h) != 4 {
		t.Fatalf("hull size %d, want 4: %v", len(h), h)
	}
	for _, p := range h {
		if p.X != 0 && p.X != 1 && p.Y != 0 && p.Y != 1 {
			t.Fatalf("interior point %v on hull", p)
		}
	}
}

func TestHullCollinear(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	h := Hull(pts)
	if len(h) != 2 {
		t.Fatalf("collinear hull size %d, want 2: %v", len(h), h)
	}
}

func TestHullSmall(t *testing.T) {
	if h := Hull(nil); len(h) != 0 {
		t.Fatalf("empty hull: %v", h)
	}
	if h := Hull([]Point{{1, 2}}); len(h) != 1 {
		t.Fatalf("singleton hull: %v", h)
	}
	if h := Hull([]Point{{1, 2}, {1, 2}, {3, 4}}); len(h) != 2 {
		t.Fatalf("duplicate-handling hull: %v", h)
	}
}

func TestHullCCWOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	h := Hull(pts)
	if len(h) < 3 {
		t.Fatalf("hull too small: %d", len(h))
	}
	// All turns counter-clockwise.
	for i := range h {
		a, b, c := h[i], h[(i+1)%len(h)], h[(i+2)%len(h)]
		if cross(a, b, c) <= 0 {
			t.Fatalf("non-CCW turn at %d: %v %v %v", i, a, b, c)
		}
	}
	// All input points inside or on the hull.
	for _, p := range pts {
		for i := range h {
			a, b := h[i], h[(i+1)%len(h)]
			if cross(a, b, p) < -1e-12 {
				t.Fatalf("point %v outside hull edge %v-%v", p, a, b)
			}
		}
	}
}

func TestFromVectors(t *testing.T) {
	ps, err := FromVectors([]geom.Vector{{1, 2}, {3, 4}})
	if err != nil || len(ps) != 2 || ps[1] != (Point{3, 4}) {
		t.Fatalf("FromVectors = %v, %v", ps, err)
	}
	if _, err := FromVectors([]geom.Vector{{1, 2, 3}}); err == nil {
		t.Fatal("3-d vector accepted")
	}
}

func TestUpperRightChain(t *testing.T) {
	// The paper's style of configuration: three extreme points, one
	// interior, one on the "staircase" but inside the hull.
	pts := []Point{
		{1.0, 0.2}, // extreme (max X)
		{0.8, 0.8}, // extreme
		{0.2, 1.0}, // extreme (max Y)
		{0.5, 0.5}, // interior
		{0.9, 0.3}, // inside the chain
	}
	chain := UpperRightChain(pts)
	want := []Point{{0.2, 1.0}, {0.8, 0.8}, {1.0, 0.2}}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %v, want %v", i, chain[i], want[i])
		}
	}
}

func TestUpperRightChainDominatedPoint(t *testing.T) {
	// A dominated point can never be on the chain.
	pts := []Point{{0.9, 0.9}, {0.5, 0.5}}
	chain := UpperRightChain(pts)
	if len(chain) != 1 || chain[0] != (Point{0.9, 0.9}) {
		t.Fatalf("chain = %v", chain)
	}
}
