package happy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func TestComputeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		d := 2 + rng.Intn(4)
		n := 200 + rng.Intn(800)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = 0.05 + 0.95*rng.Float64()
			}
			pts[i] = p
		}
		for j := 0; j < d; j++ {
			maxv := 0.0
			for _, p := range pts {
				maxv = math.Max(maxv, p[j])
			}
			for _, p := range pts {
				p[j] /= maxv
			}
		}
		sky := bruteSkyline(pts)
		want := computeAmong(pts, sky, sky)
		for _, workers := range []int{0, 1, 3, 8} {
			got := ComputeAmongSkylineCertParallel(pts, sky, workers).HappyPoints()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: %v vs %v", trial, workers, got, want)
			}
		}
	}
}
