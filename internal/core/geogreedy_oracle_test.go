package core

// The sweep oracle for greedyHullTrace. sweepGreedyHullTrace is the
// greedy dual-hull loop as it ran before the per-vertex candidate
// lists: after every insertion it visits every candidate, re-locates
// each one whose cached vertex was destroyed (candidates already
// inside Conv(S) included), and folds the maximum over every
// unselected candidate. The production loop walks only the lists of
// the destroyed vertices and retires candidates at support
// ≤ 1 − geom.Eps; the tests below hold its answers to this one bit
// for bit.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/mat"
	"repro/internal/skyline"
)

// sweepCand is the oracle's per-candidate cache: the dual vertex
// attaining the candidate's support and the support there.
type sweepCand struct {
	bestVal float64
	bestID  int
	taken   bool
}

// sweepMaxSupport is the oracle's fold over every unselected
// candidate in index order: first maximum wins, a NaN is
// ErrDegenerate naming the lowest poisoned candidate.
func sweepMaxSupport(states []sweepCand) (int, float64, error) {
	best, bestVal := -1, 0.0
	for i := range states {
		st := &states[i]
		if st.taken {
			continue
		}
		if math.IsNaN(st.bestVal) {
			return -1, 0, fmt.Errorf("%w: candidate %d has NaN critical ratio", ErrDegenerate, i)
		}
		if best < 0 || st.bestVal > bestVal {
			best, bestVal = i, st.bestVal
		}
	}
	return best, bestVal, nil
}

func sweepMRR(states []sweepCand) (float64, error) {
	_, maxVal, err := sweepMaxSupport(states)
	if err != nil || maxVal <= 1 {
		return 0, err
	}
	return 1 - 1/maxVal, nil
}

// sweepGreedyHullTrace has greedyHullTrace's contract (sequential, no
// fault sites) and the pre-list implementation.
func sweepGreedyHullTrace(pts []geom.Vector, k int, stop float64, extraSeeds []int, onSelect func(int, float64)) (*Result, error) {
	ctx := context.Background()
	if _, err := validatePoints(pts); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	k = min(k, len(pts))
	hull, err := newDualHull(maxPerDim(pts))
	if err != nil {
		return nil, err
	}
	qm := mat.FromVectors(pts)
	selected := make([]int, 0, k)
	states := make([]sweepCand, len(pts))
	var x *EvalIndex
	exactMRR := func(sel []int) (float64, error) {
		if x == nil {
			if x, err = NewEvalIndex(pts); err != nil {
				return 0, err
			}
		}
		return x.MRRGeometric(sel)
	}

	seeds := BoundaryPoints(pts)
	nBoundary := len(seeds)
	truncatedSeeds := nBoundary > k
	if truncatedSeeds {
		seeds = seeds[:k]
	}
	for _, i := range seeds {
		if _, err := hull.insert(ctx, pts[i]); err != nil {
			return nil, err
		}
		states[i].taken = true
		selected = append(selected, i)
	}
	for _, i := range extraSeeds {
		if i < 0 || i >= len(pts) {
			return nil, fmt.Errorf("%w: %d (n=%d)", ErrBadSubset, i, len(pts))
		}
		if states[i].taken || len(selected) >= k {
			continue
		}
		if _, err := hull.insert(ctx, pts[i]); err != nil {
			return nil, err
		}
		states[i].taken = true
		selected = append(selected, i)
	}

	vals := make([]float64, len(pts))
	ids := make([]int, len(pts))
	hull.poly.SupportsInto(qm, 0, len(pts), vals, ids)
	for i := range states {
		if !states[i].taken {
			states[i].bestVal, states[i].bestID = vals[i], ids[i]
		}
	}
	if onSelect != nil {
		mrr, err := sweepMRR(states)
		if err != nil {
			return nil, err
		}
		for j, i := range selected {
			m := mrr
			if j+1 < nBoundary {
				if m, err = exactMRR(selected[:j+1]); err != nil {
					return nil, err
				}
			}
			onSelect(i, m)
		}
	}

	var removedAt []int
	capT := new(mat.Transposed)
	exhausted := -1
	for len(selected) < k {
		best, bestVal, err := sweepMaxSupport(states)
		if err != nil {
			return nil, err
		}
		if best < 0 || bestVal <= stop+geom.Eps {
			exhausted = len(selected)
			break
		}
		res, err := hull.insert(ctx, pts[best])
		if err != nil {
			return nil, err
		}
		states[best].taken = true
		selected = append(selected, best)
		if len(res.RemovedIDs) > 0 {
			stamp := len(selected)
			for _, id := range res.RemovedIDs {
				for id >= len(removedAt) {
					removedAt = append(removedAt, 0)
				}
				removedAt[id] = stamp
			}
			var capPts []geom.Vector
			var capIDs []int
			for _, v := range res.Added {
				capPts, capIDs = append(capPts, v.Point), append(capIDs, v.ID)
			}
			for _, v := range res.OnPlane {
				capPts, capIDs = append(capPts, v.Point), append(capIDs, v.ID)
			}
			capT.SetCols(qm.Dim(), capPts)
			for i := range states {
				st := &states[i]
				id := st.bestID
				if st.taken || id < 0 || id >= len(removedAt) || removedAt[id] != stamp {
					continue
				}
				c, newVal := capT.MaxDotCols(qm.Row(i))
				newID := -1
				if c >= 0 {
					newID = capIDs[c]
				}
				st.bestVal, st.bestID = newVal, newID
			}
		}
		if onSelect != nil {
			mrr, err := sweepMRR(states)
			if err != nil {
				return nil, err
			}
			onSelect(best, mrr)
		}
	}

	mrr, err := sweepMRR(states)
	if err != nil {
		return nil, err
	}
	if truncatedSeeds {
		if mrr, err = exactMRR(selected); err != nil {
			return nil, err
		}
	}
	return &Result{Indices: selected, MRR: mrr, ExhaustedAt: exhausted}, nil
}

// traceRun is one greedyHullTrace outcome in comparable form: the
// result or the error text, and every onSelect call with its regret
// as raw bits. The two loops word their errors differently, so only
// an error's presence is compared.
type traceRun struct {
	indices   []int
	mrrBits   uint64
	exhausted int
	selects   [][2]uint64
	err       string
}

func runTrace(run func(onSelect func(int, float64)) (*Result, error)) traceRun {
	var tr traceRun
	res, err := run(func(i int, mrr float64) {
		tr.selects = append(tr.selects, [2]uint64{uint64(i), math.Float64bits(mrr)})
	})
	if err != nil {
		tr.err = err.Error()
		return tr
	}
	tr.indices, tr.mrrBits, tr.exhausted = res.Indices, math.Float64bits(res.MRR), res.ExhaustedAt
	return tr
}

// priceUnpriced evaluates the seed-prefix regrets the production loop
// reports as unpriced the way StoredList prices them on first read,
// so the comparison below pins those bits against the oracle's too.
func priceUnpriced(t *testing.T, pts []geom.Vector, tr *traceRun) {
	t.Helper()
	var x *EvalIndex
	for j, sel := range tr.selects {
		if math.Float64frombits(sel[1]) >= 0 {
			continue
		}
		if x == nil {
			var err error
			if x, err = NewEvalIndex(pts); err != nil {
				t.Fatal(err)
			}
		}
		prefix := make([]int, j+1)
		for i := range prefix {
			prefix[i] = int(tr.selects[i][0])
		}
		m, err := x.MRRGeometric(prefix)
		if err != nil {
			t.Fatal(err)
		}
		tr.selects[j][1] = math.Float64bits(m)
	}
}

// checkAgainstSweep runs greedyHullTrace and the sweep oracle on one
// input, once with and once without onSelect (the production loop
// prices the regret only when asked, and a seed prefix's not even
// then), and reports the first difference.
func checkAgainstSweep(t *testing.T, name string, pts []geom.Vector, k int, stop float64, extraSeeds []int) {
	t.Helper()
	ctx := context.Background()
	for _, traced := range []bool{false, true} {
		got := runTrace(func(onSelect func(int, float64)) (*Result, error) {
			if !traced {
				onSelect = nil
			}
			return greedyHullTrace(ctx, pts, k, 1, stop, extraSeeds, onSelect)
		})
		priceUnpriced(t, pts, &got)
		want := runTrace(func(onSelect func(int, float64)) (*Result, error) {
			if !traced {
				onSelect = nil
			}
			return sweepGreedyHullTrace(pts, k, stop, extraSeeds, onSelect)
		})
		if (got.err == "") != (want.err == "") {
			t.Fatalf("%s k=%d stop=%v traced=%v: error %q, oracle %q", name, k, stop, traced, got.err, want.err)
		}
		if fmt.Sprint(got.indices) != fmt.Sprint(want.indices) || got.mrrBits != want.mrrBits || got.exhausted != want.exhausted {
			t.Fatalf("%s k=%d stop=%v traced=%v: got %v mrr=%x exhausted=%d, oracle %v mrr=%x exhausted=%d",
				name, k, stop, traced, got.indices, got.mrrBits, got.exhausted, want.indices, want.mrrBits, want.exhausted)
		}
		if len(got.selects) != len(want.selects) {
			t.Fatalf("%s k=%d stop=%v: %d onSelect calls, oracle %d", name, k, stop, len(got.selects), len(want.selects))
		}
		for j := range got.selects {
			if got.selects[j] != want.selects[j] {
				t.Fatalf("%s k=%d stop=%v: onSelect %d = (%d, %x), oracle (%d, %x)", name, k, stop, j,
					got.selects[j][0], got.selects[j][1], want.selects[j][0], want.selects[j][1])
			}
		}
	}
}

// oracleInputs builds the degenerate and generic point families of
// the oracle comparison at dimension d.
func oracleInputs(rng *rand.Rand, d int) map[string][]geom.Vector {
	n := 60
	if d >= 5 {
		n = 30
	}
	grid := func(levels int) []geom.Vector {
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = float64(1+rng.Intn(levels)) / float64(levels)
			}
			pts[i] = p
		}
		return pts
	}
	dup := antiCorrelated(rng, n/3, d)
	for len(dup) < n {
		dup = append(dup, append(geom.Vector(nil), dup[rng.Intn(len(dup))]...))
	}
	near := antiCorrelated(rng, n/2, d)
	for i := 0; len(near) < n; i++ {
		p := append(geom.Vector(nil), near[i]...)
		for j := range p {
			p[j] = math.Max(1e-3, p[j]*(1-float64(rng.Intn(3))*1e-12))
		}
		near = append(near, p)
	}
	return map[string][]geom.Vector{
		"random":    randomNormalized(rng, n, d),
		"anti":      antiCorrelated(rng, n, d),
		"grid":      grid(3),
		"fine-grid": grid(7),
		"duplicate": dup,
		"near-tie":  near,
	}
}

// oracleNetSeeds mimics the coreset direction net: the argmax of each of a
// few random directions, duplicates and boundary points included.
func oracleNetSeeds(rng *rand.Rand, pts []geom.Vector, m int) []int {
	seeds := make([]int, 0, m)
	for range m {
		w := make(geom.Vector, len(pts[0]))
		for j := range w {
			w[j] = rng.Float64()
		}
		best, bestVal := 0, math.Inf(-1)
		for i, p := range pts {
			if v := w.Dot(p); v > bestVal {
				best, bestVal = i, v
			}
		}
		seeds = append(seeds, best)
	}
	return seeds
}

// TestGreedyHullTraceMatchesSweepOracle: GeoGreedy (stop 1) and the
// ε-kernel (stop 1/(1−ε), with direction-net extra seeds) return the
// sweep oracle's indices, MRR bits, ExhaustedAt and onSelect regrets
// on random, anti-correlated, grid, duplicate and near-tie points,
// d = 2..6, k from 1 (truncated seeds) to n.
func TestGreedyHullTraceMatchesSweepOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for d := 2; d <= 6; d++ {
		for name, pts := range oracleInputs(rng, d) {
			n := len(pts)
			label := fmt.Sprintf("%s d=%d", name, d)
			for _, k := range []int{1, d - 1, d, d + 1, d + 3, n / 4, n / 2, n} {
				if k >= 1 {
					checkAgainstSweep(t, label, pts, k, 1, nil)
				}
			}
			for _, eps := range []float64{0, 0.02, 0.1, 0.3} {
				seeds := oracleNetSeeds(rng, pts, 2*d)
				checkAgainstSweep(t, label+fmt.Sprintf(" eps=%v", eps), pts, n, 1/(1-eps), seeds)
			}
		}
	}
}

// TestGreedyHullTraceMatchesSweepOraclePaper runs the comparison on
// the paper instance's happy points (anti-correlated, n = 100,000,
// d = 4, seed 20140331: 2,319 candidates) at k = 10..50.
func TestGreedyHullTraceMatchesSweepOraclePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 100k-point paper instance")
	}
	pts, err := dataset.AntiCorrelated(100000, 4, 20140331)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := skyline.Of(pts)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := Select(pts, happy.ComputeAmongSkylineCertParallel(pts, sky, 0).HappyPoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) != 2319 {
		t.Fatalf("paper instance has %d happy points, want 2,319", len(cand))
	}
	for k := 10; k <= 50; k++ {
		checkAgainstSweep(t, "paper", cand, k, 1, nil)
	}
}

// FuzzGeoGreedyOracle compares greedyHullTrace with the sweep oracle
// on small grids the fuzzer builds: every byte is one coordinate on a
// grid of levels+1 steps, so ties, duplicates and coplanar points are
// the common case rather than the exception.
func FuzzGeoGreedyOracle(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), uint8(0), []byte{1, 2, 3, 3, 2, 1, 2, 2, 2, 4, 1, 1, 1, 4, 1})
	f.Add(uint8(2), uint8(1), uint8(3), uint8(9), []byte{0, 3, 3, 0, 2, 2, 1, 3, 3, 1})
	f.Add(uint8(4), uint8(8), uint8(2), uint8(3), make([]byte, 40))
	f.Fuzz(func(t *testing.T, dRaw, levelsRaw, kRaw, epsRaw uint8, raw []byte) {
		d := int(dRaw)%5 + 2
		levels := int(levelsRaw)%8 + 1
		n := min(len(raw)/d, 40)
		if n < 1 {
			return
		}
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = float64(1+int(raw[i*d+j])%levels) / float64(levels)
			}
			pts[i] = p
		}
		k := int(kRaw)%n + 1
		checkAgainstSweep(t, "fuzz", pts, k, 1, nil)
		if epsRaw%2 == 1 {
			eps := float64(epsRaw%10) / 20
			rng := rand.New(rand.NewSource(int64(epsRaw)))
			checkAgainstSweep(t, fmt.Sprintf("fuzz eps=%v", eps), pts, n, 1/(1-eps), oracleNetSeeds(rng, pts, d))
		}
	})
}
