package geom

import "testing"

func TestEpsHelpers(t *testing.T) {
	if !ApproxEqual(1, 1+1e-12, 1e-9) {
		t.Fatal("ApproxEqual too strict")
	}
	if !Zero(1e-12, 1e-9) || Zero(1e-3, 1e-9) {
		t.Fatal("Zero wrong")
	}
	if Clamp01(-1) != 0 || Clamp01(2) != 1 || Clamp01(0.5) != 0.5 {
		t.Fatal("Clamp01 wrong")
	}
}

func TestRelEps(t *testing.T) {
	if RelEps(0, 0, 1e-9) != 1e-9 {
		t.Fatal("unit-range RelEps")
	}
	if RelEps(100, -3, 1e-9) != 1e-9*101 {
		t.Fatalf("scaled RelEps = %v", RelEps(100, -3, 1e-9))
	}
}
