package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

func TestCubeBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := antiCorrelated(rng, 200, 3)
	res, err := CubeCtx(context.Background(), pts, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) > 20 || len(res.Indices) == 0 {
		t.Fatalf("selected %d", len(res.Indices))
	}
	if res.MRR < 0 || res.MRR > 1 {
		t.Fatalf("mrr %v", res.MRR)
	}
}

func TestCubeValidation(t *testing.T) {
	if _, err := CubeCtx(context.Background(), nil, 3); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := antiCorrelated(rng, 10, 3)
	if _, err := CubeCtx(context.Background(), pts, 0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
}

func TestCubeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := antiCorrelated(rng, 300, 4)
	a, err := CubeCtx(context.Background(), pts, 25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CubeCtx(context.Background(), pts, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Indices, b.Indices) {
		t.Fatal("non-deterministic selection")
	}
}

// TestCubeGuarantee: the CUBE bound holds when the full cell budget
// fits in k (boundary padding can consume part of the budget, so test
// with k comfortably above t^(d−1)+d).
func TestCubeGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(3)
		pts := antiCorrelated(rng, 150+rng.Intn(300), d)
		k := 3*d + rng.Intn(40)
		res, err := CubeCtx(context.Background(), pts, k)
		if err != nil {
			t.Fatal(err)
		}
		bound := CubeBound(k-d, d) // conservative: budget minus padding
		if res.MRR > bound+1e-9 {
			t.Fatalf("trial %d (d=%d k=%d): regret %v exceeds CUBE bound %v",
				trial, d, k, res.MRR, bound)
		}
	}
}

// TestCubeWorseOrEqualToGreedy: CUBE is the cheap baseline; the
// greedy should (weakly) beat it almost always. We assert only a
// loose relationship to avoid flaky adversarial draws.
func TestCubeVsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	worseCount := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		pts := antiCorrelated(rng, 200, 3)
		k := 8 + rng.Intn(10)
		cube, err := CubeCtx(context.Background(), pts, k)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := GeoGreedy(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if cube.MRR > geo.MRR-1e-12 {
			worseCount++
		}
	}
	if worseCount < trials/2 {
		t.Fatalf("CUBE beat the greedy in %d/%d trials — suspicious", trials-worseCount, trials)
	}
}

func TestCubeBoundEdgeCases(t *testing.T) {
	if CubeBound(5, 1) != 1 || CubeBound(2, 4) != 1 {
		t.Fatal("degenerate bounds should be 1")
	}
	if b := CubeBound(100, 2); b <= 0 || b >= 1 {
		t.Fatalf("bound %v", b)
	}
}
