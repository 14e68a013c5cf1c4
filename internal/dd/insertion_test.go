package dd_test

// Insertion-level tests of the double description update: run-to-run
// determinism, golden vertex sets pinned bit for bit, and the
// allocation budget of a GeoGreedy-sized replay. They use only the
// exported API, and the external package lets the fixtures come from
// the real pipeline (dataset → happy points → StoredList order).

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/happy"
)

// cut is one halfspace normal·x ≤ offset.
type cut struct {
	normal geom.Vector
	offset float64
}

// sequence is a box followed by a fixed list of cuts.
type sequence struct {
	name  string
	upper []float64
	cuts  []cut
}

// generalSequence draws a random box and cuts at random distances
// from its centre in random directions. Every cut keeps a ball around
// the centre, so the polytope never empties, and later cuts keep
// cutting; continuous coefficients put the vertices in general
// position.
func generalSequence(d int, seed int64, n int) sequence {
	rng := rand.New(rand.NewSource(seed))
	s := sequence{name: fmt.Sprintf("general-d%d", d), upper: make([]float64, d)}
	centre := make(geom.Vector, d)
	for i := range s.upper {
		s.upper[i] = 0.5 + rng.Float64()
		centre[i] = s.upper[i] / 2
	}
	for c := 0; c < n; c++ {
		normal := make(geom.Vector, d)
		for j := range normal {
			normal[j] = rng.NormFloat64()
		}
		r := 0.02 + 0.3*rng.Float64()
		s.cuts = append(s.cuts, cut{normal, normal.Dot(centre) + r*normal.Norm()})
	}
	return s
}

// gridSequence inserts, in a seeded shuffle, the dual halfspaces
// ω·p ≤ 1 of every point p with coordinates in {¼, ½, ¾, 1} summing to
// d·⅝ (rounded to quarters). No such point dominates another, and the
// coarse grid makes many cuts pass exactly through existing vertices
// and several crossings coincide, exercising the on-plane and
// duplicate-merge paths.
func gridSequence(d int, seed int64) sequence {
	s := sequence{name: fmt.Sprintf("grid-d%d", d), upper: make([]float64, d)}
	for i := range s.upper {
		s.upper[i] = 1
	}
	target := (5*d + 1) / 2 // coordinate sum in quarters
	a := make([]int, d)
	var walk func(j, sum int)
	walk = func(j, sum int) {
		if j == d {
			if sum == target {
				p := make(geom.Vector, d)
				for i, x := range a {
					p[i] = float64(x) / 4
				}
				s.cuts = append(s.cuts, cut{p, 1})
			}
			return
		}
		for x := 1; x <= 4; x++ {
			a[j] = x
			walk(j+1, sum+x)
		}
	}
	walk(0, 0)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(s.cuts), func(i, j int) { s.cuts[i], s.cuts[j] = s.cuts[j], s.cuts[i] })
	return s
}

// shavedSequence alternates general cuts with shaves: a cut that
// removes the vertex maximizing a random direction by about twice the
// on-plane tolerance, so the crossings on its edges land within the
// duplicate-merge tolerance of each other. Which crossing a merge
// keeps depends on the order edges are visited in, so these sequences
// check determinism; they have no order-free golden vertex set.
func shavedSequence(tb testing.TB, d int, seed int64, n int) sequence {
	tb.Helper()
	g := generalSequence(d, seed, n)
	s := sequence{name: fmt.Sprintf("shaved-d%d", d), upper: g.upper}
	p, err := dd.NewBox(s.upper)
	if err != nil {
		tb.Fatalf("%s: NewBox: %v", s.name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i, c := range g.cuts {
		if i%2 == 1 {
			dir := make(geom.Vector, d)
			for j := range dir {
				dir[j] = rng.NormFloat64()
			}
			top, _ := p.MaxDot(dir)
			c = cut{dir, top - 2e-9*(1+math.Abs(top))}
		}
		if _, err := p.AddHalfspace(c.normal, c.offset); err != nil {
			tb.Fatalf("%s: insertion %d: %v", s.name, i, err)
		}
		s.cuts = append(s.cuts, c)
	}
	return s
}

// dualSequence is GeoGreedy's dual-hull update for points inserted in
// the given order: the box 0 ≤ ω_i ≤ 1/max_i, then ω·p ≤ 1 per point.
func dualSequence(name string, pts []geom.Vector, order []int) sequence {
	s := sequence{name: name, upper: make([]float64, len(pts[0]))}
	for j := range s.upper {
		m := 0.0
		for _, p := range pts {
			m = math.Max(m, p[j])
		}
		s.upper[j] = 1 / m
	}
	for _, i := range order {
		s.cuts = append(s.cuts, cut{pts[i], 1})
	}
	return s
}

var (
	happyOnce sync.Once
	happySeq  sequence
	happyErr  error
)

// happyStoredList is the d=4 anti-correlated happy set at n=5,000,
// inserted in StoredList (full GeoGreedy) order — the dual-hull
// replay a StoredList build performs.
func happyStoredList(tb testing.TB) sequence {
	tb.Helper()
	happyOnce.Do(func() {
		pts, err := dataset.AntiCorrelated(5000, 4, 20140331)
		if err != nil {
			happyErr = err
			return
		}
		hp, err := happy.Compute(pts)
		if err != nil {
			happyErr = err
			return
		}
		cand, err := core.Select(pts, hp)
		if err != nil {
			happyErr = err
			return
		}
		list, err := core.BuildStoredList(cand)
		if err != nil {
			happyErr = err
			return
		}
		order, err := list.Query(list.Len())
		if err != nil {
			happyErr = err
			return
		}
		happySeq = dualSequence("happy-anti-d4", cand, order)
	})
	if happyErr != nil {
		tb.Fatalf("building the happy-set fixture: %v", happyErr)
	}
	return happySeq
}

// replay builds the sequence's polytope, calling step after the box
// (with a zero AddResult) and after every insertion.
func replay(tb testing.TB, s sequence, step func(p *dd.Polytope, res dd.AddResult)) {
	tb.Helper()
	p, err := dd.NewBox(s.upper)
	if err != nil {
		tb.Fatalf("%s: NewBox: %v", s.name, err)
	}
	step(p, dd.AddResult{})
	for i, c := range s.cuts {
		res, err := p.AddHalfspace(c.normal, c.offset)
		if err != nil {
			tb.Fatalf("%s: insertion %d: %v", s.name, i, err)
		}
		step(p, res)
	}
}

// writeVertex feeds a vertex's point bits and tight set to the hash.
func writeVertex(h interface{ Write([]byte) (int, error) }, v *dd.Vertex) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, x := range v.Point {
		put(math.Float64bits(x))
	}
	put(uint64(len(v.Tight)))
	for _, c := range v.Tight {
		put(uint64(c))
	}
}

// compareVertices orders vertices by point bits, then tight set: a
// total order that ignores IDs and insertion order.
func compareVertices(a, b *dd.Vertex) int {
	for j := range a.Point {
		if c := cmp.Compare(math.Float64bits(a.Point[j]), math.Float64bits(b.Point[j])); c != 0 {
			return c
		}
	}
	return slices.Compare(a.Tight, b.Tight)
}

// TestAddHalfspaceGolden pins every step's vertex set bit for bit: an
// FNV-64a hash over each step's vertices sorted by (point bits, tight
// set). Without duplicate crossings a sorted vertex set does not
// depend on the order the update visits edges in, so the constants
// hold for any update that performs the same floating-point
// operations per edge and per vertex, whatever its visit order.
func TestAddHalfspaceGolden(t *testing.T) {
	cases := []struct {
		seq  sequence
		want uint64
	}{
		{generalSequence(2, 1, 20), 0x79b1c3cce1a8fab8},
		{generalSequence(3, 2, 20), 0x15ed8726b26f9d6c},
		{generalSequence(4, 3, 20), 0x185cf4947a213d5e},
		{generalSequence(5, 4, 20), 0x759949e5227282a8},
		{generalSequence(6, 5, 20), 0x8d8e3f0ac168aefb},
		{gridSequence(3, 6), 0x6002255ca9488cba},
		{gridSequence(4, 7), 0x3fa38c14082af0dd},
		{gridSequence(5, 8), 0x78dc2e58d2b59277},
		{happyStoredList(t), 0xbbbde46909dfdd54},
	}
	for _, tc := range cases {
		h := fnv.New64a()
		replay(t, tc.seq, func(p *dd.Polytope, _ dd.AddResult) {
			vs := slices.Clone(p.Vertices())
			slices.SortFunc(vs, compareVertices)
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
			h.Write(buf[:])
			for _, v := range vs {
				writeVertex(h, v)
			}
		})
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s (%d cuts): vertex-set hash %#x, want %#x", tc.seq.name, len(tc.seq.cuts), got, tc.want)
		}
	}
}

// transcript hashes, per step, the vertex list in Vertices() order
// and the AddResult, with IDs, point bits and tight sets.
func transcript(t *testing.T, s sequence) []uint64 {
	var steps []uint64
	replay(t, s, func(p *dd.Polytope, res dd.AddResult) {
		h := fnv.New64a()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		list := func(vs []*dd.Vertex) {
			put(uint64(len(vs)))
			for _, v := range vs {
				put(uint64(v.ID))
				writeVertex(h, v)
			}
		}
		list(p.Vertices())
		if res.Redundant {
			put(1)
		}
		put(uint64(len(res.RemovedIDs)))
		for _, id := range res.RemovedIDs {
			put(uint64(id))
		}
		list(res.Added)
		list(res.OnPlane)
		steps = append(steps, h.Sum64())
	})
	return steps
}

// TestAddHalfspaceDeterministic runs each sequence twice in one
// process: vertex order, IDs, points, tight sets and every AddResult
// must repeat exactly (the edge visit order must not depend on map
// iteration or any other per-run state).
func TestAddHalfspaceDeterministic(t *testing.T) {
	var seqs []sequence
	for d := 2; d <= 6; d++ {
		seqs = append(seqs, generalSequence(d, int64(100+d), 20))
	}
	seqs = append(seqs, gridSequence(3, 103), gridSequence(4, 104),
		shavedSequence(t, 3, 105, 24), shavedSequence(t, 4, 106, 24), shavedSequence(t, 5, 107, 24))
	for _, s := range seqs {
		a, b := transcript(t, s), transcript(t, s)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: step %d differs between two identical runs", s.name, i-1)
				break
			}
		}
	}
}

// greedySelection is GeoGreedy's selection at k=30 on the happy-set
// fixture: the first 30 cuts of its StoredList sequence.
func greedySelection(tb testing.TB) sequence {
	s := happyStoredList(tb)
	s.cuts = s.cuts[:30]
	return s
}

// build runs the box and every cut of s: the dual-hull work of one
// GeoGreedy query.
func build(s sequence) error {
	p, err := dd.NewBox(s.upper)
	if err != nil {
		return err
	}
	for _, c := range s.cuts {
		if _, err := p.AddHalfspace(c.normal, c.offset); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkAddHalfspace times NewBox plus the 30 insertions of a
// GeoGreedy selection on d=4 anti-correlated data.
func BenchmarkAddHalfspace(b *testing.B) {
	s := greedySelection(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := build(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.cuts)), "ns/insert")
}

// maxBuildAllocs bounds the allocations of BenchmarkAddHalfspace's
// replay, which creates about 400 vertices. With vertices carved from
// per-polytope slabs it allocates about 340 times: the box, the
// per-insertion results, a few slabs and the scratch tables' first
// growth. Separate allocations for each vertex's struct, point and
// tight set (about 1,200 here) or per-edge scratch exceed the budget.
const maxBuildAllocs = 1000

// TestAddHalfspaceAllocs gates the replay's allocation count.
func TestAddHalfspaceAllocs(t *testing.T) {
	s := greedySelection(t)
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		if e := build(s); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > maxBuildAllocs {
		t.Fatalf("NewBox + %d insertions allocate %.0f times, budget %d", len(s.cuts), allocs, maxBuildAllocs)
	}
	t.Logf("NewBox + %d insertions: %.0f allocations", len(s.cuts), allocs)
}
