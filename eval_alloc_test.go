package kregret

import (
	"math/rand"
	"testing"
)

// TestEvalIndexAllocsFlat: an epoch's evaluator reads the epoch's rows
// in place, so the bytes its build allocates do not grow with n. The
// points lie below one dominating point, so the skyline — whose rows
// the evaluator does gather — is that point at every n; a private copy
// of the rows would be 8·d bytes a point.
func TestEvalIndexAllocsFlat(t *testing.T) {
	const d = 4
	build := func(n int) uint64 {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := make([]Point, n)
		for i := range pts {
			p := make(Point, d)
			for j := range p {
				p[j] = 0.05 + 0.45*rng.Float64()
			}
			pts[i] = p
		}
		pts[n/2] = Point{1, 1, 1, 1}
		ds, err := NewDataset(pts, WithoutNormalization())
		if err != nil {
			t.Fatal(err)
		}
		st := ds.snap()
		if sky, err := st.skyline(); err != nil || len(sky) != 1 {
			t.Fatalf("skyline %v, %v; want the one dominating point", sky, err)
		}
		return allocated(func() {
			if _, err := st.evalIndex(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(10_000), build(100_000)
	if large > small+1024 {
		t.Fatalf("the evaluator allocated %d bytes at n=10000 and %d at n=100000", small, large)
	}
	t.Logf("the evaluator allocated %d bytes at n=10000 and %d at n=100000", small, large)
}
