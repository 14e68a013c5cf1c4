package skyline

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// brute is the obvious O(n²) oracle: a point is on the skyline when no
// other point dominates it.
func brute(pts []geom.Vector) []int {
	var out []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if j != i && geom.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// entries are the public skyline operators every shared test runs
// over; all must return the same ascending index set.
var entries = []struct {
	name string
	fn   func([]geom.Vector) ([]int, error)
}{
	{"Of", Of},
	{"ComputeParallel", func(pts []geom.Vector) ([]int, error) { return ComputeParallel(pts, 4) }},
}

func TestKnownSmall(t *testing.T) {
	pts := []geom.Vector{
		{0.94, 0.80}, // p1: skyline
		{0.76, 0.93}, // p2: skyline
		{0.67, 1.00}, // p3: skyline
		{1.00, 0.72}, // p4: skyline
		{0.60, 0.60}, // dominated by p1..p3
		{0.94, 0.79}, // dominated by p1
	}
	want := []int{0, 1, 2, 3}
	for _, e := range entries {
		got, err := e.fn(pts)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, want %v", e.name, got, want)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, e := range entries {
		got, err := e.fn(nil)
		if err != nil || len(got) != 0 {
			t.Fatalf("%s empty: %v, %v", e.name, got, err)
		}
		got, err = e.fn([]geom.Vector{{1, 2}})
		if err != nil || !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("%s single: %v, %v", e.name, got, err)
		}
	}
}

func TestDuplicatesRetained(t *testing.T) {
	pts := []geom.Vector{{1, 1}, {1, 1}, {0.5, 0.5}}
	for _, e := range entries {
		got, err := e.fn(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int{0, 1}) {
			t.Fatalf("%s: got %v, want both duplicates", e.name, got)
		}
	}
}

func TestAllSkyline(t *testing.T) {
	// Perfect anti-correlation: nobody dominates anybody.
	var pts []geom.Vector
	for i := 0; i < 50; i++ {
		x := float64(i) / 49
		pts = append(pts, geom.Vector{x, 1 - x})
	}
	for _, e := range entries {
		got, err := e.fn(pts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("%s: %d skyline points, want all %d", e.name, len(got), len(pts))
		}
	}
}

func TestBadInput(t *testing.T) {
	for _, e := range entries {
		if _, err := e.fn([]geom.Vector{{1, 2}, {1}}); err == nil {
			t.Fatalf("%s: ragged input accepted", e.name)
		}
		if _, err := e.fn([]geom.Vector{{math.NaN(), 1}}); err == nil {
			t.Fatalf("%s: NaN input accepted", e.name)
		}
		if _, err := e.fn([]geom.Vector{{}, {}}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: zero-dimensional input: err = %v, want ErrBadInput", e.name, err)
		}
	}
}

func TestAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(5)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				// Coarse grid provokes ties and duplicates.
				p[j] = float64(rng.Intn(8)) / 7
			}
			pts[i] = p
		}
		want := brute(pts)
		for _, e := range entries {
			got, err := e.fn(pts)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: got %v, want %v", trial, e.name, got, want)
			}
		}
	}
}

// Property: the skyline is a minimal dominating antichain — no
// member dominates another, and every non-member is dominated by a
// member.
func TestSkylineCharacterization(t *testing.T) {
	f := func(raw [20][3]float64) bool {
		pts := make([]geom.Vector, len(raw))
		for i := range raw {
			p := make(geom.Vector, 3)
			for j := range p {
				p[j] = math.Abs(math.Mod(raw[i][j], 1))
			}
			pts[i] = p
		}
		for _, e := range entries {
			sky, err := e.fn(pts)
			if err != nil {
				return false
			}
			inSky := make(map[int]bool)
			for _, i := range sky {
				inSky[i] = true
			}
			for _, i := range sky {
				for _, j := range sky {
					if i != j && geom.Dominates(pts[i], pts[j]) {
						return false
					}
				}
			}
			for i := range pts {
				if inSky[i] {
					continue
				}
				dominated := false
				for _, s := range sky {
					if geom.Dominates(pts[s], pts[i]) {
						dominated = true
						break
					}
				}
				if !dominated {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOf(t *testing.T) {
	got, err := Of([]geom.Vector{{1, 0.5}, {0.5, 1}, {0.4, 0.4}})
	if err != nil || !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Of = %v, %v", got, err)
	}
}
