// Package coreset builds ε-kernel coresets over the candidate points
// of a k-regret query — the scale layer between preprocessing and the
// greedy solvers (ROADMAP item 2, following Agarwal et al.'s ε-kernel
// framing of regret-minimizing sets).
//
// A coreset here is a subset C of the candidates such that for every
// nonnegative preference w,
//
//	max over C of w·p  ≥  (1−ε) · max over cand of w·p,
//
// equivalently MRR(C, measured against cand) ≤ ε. Because the
// full-dataset maximum of any nonnegative linear preference is
// attained inside D_conv ⊆ D_happy, a coreset of the happy points
// carries the same guarantee against the entire dataset, and any
// selection computed on C has its true regret within ε of the regret
// it reports on C (DESIGN.md §17 gives the composition argument).
//
// Construction is two-phase on top of the existing geometry core:
//
//  1. Direction-net seeding: a simplex lattice of nonnegative
//     directions (compositions of a resolution r into d parts, count
//     capped at maxNetDirections) is swept with the blocked
//     mat.PointMatrix argmax kernel; the per-direction supports form
//     the initial kernel.
//  2. Greedy tightening: core.EpsKernelParCtx runs the GeoGreedy dual
//     hull with the stop threshold relaxed to 1/(1−ε), adding
//     candidates until every remaining one contributes at most ε of
//     regret — so the bound holds by construction, not by sampling
//     luck.
//
// The resulting core size depends on ε and the hull geometry, not on
// n, which is what lets the sharded partition–merge path in package
// kregret union per-shard cores and solve on the merged core.
package coreset

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// maxNetDirections caps the simplex direction lattice. The lattice
// resolution is the largest r with C(r+d−1, d−1) ≤ this cap, so low
// dimensions get a fine net (d=2: 511 directions) and high dimensions
// degrade gracefully to the axis directions already covered by the
// boundary seeds.
const maxNetDirections = 512

// grainNet is the parallel grain for the per-direction argmax sweep:
// each item is an O(|cand|·d) kernel pass, heavy enough that small
// chunks amortize scheduling immediately.
const grainNet = 8

// Build selects an ε-kernel coreset of pts[cand]. It returns the
// chosen subset as ascending indices into pts (a subset of cand) and
// the kernel's maximum regret ratio measured against the full
// candidate set (≤ eps up to geometric tolerance).
//
// eps ≤ 0 disables approximation: the result is a copy of cand with
// regret 0. Candidates should be the happy (or at least skyline)
// points so the ε bound transfers to the whole dataset; Build itself
// only promises the bound against cand.
func Build(ctx context.Context, pts []geom.Vector, cand []int, eps float64, workers int) ([]int, float64, error) {
	return build(ctx, cand, eps, workers, func() ([]geom.Vector, error) { return core.Select(pts, cand) })
}

// BuildRows is Build over rows, such as a dataset epoch's: it reads
// only the candidates' rows.
func BuildRows(ctx context.Context, r geom.Rows, cand []int, eps float64, workers int) ([]int, float64, error) {
	return build(ctx, cand, eps, workers, func() ([]geom.Vector, error) { return core.SelectRows(r, cand) })
}

// build is Build over the candidate points that sel gathers.
func build(ctx context.Context, cand []int, eps float64, workers int, sel func() ([]geom.Vector, error)) ([]int, float64, error) {
	if eps <= 0 || len(cand) == 0 {
		out := make([]int, len(cand))
		copy(out, cand)
		return out, 0, nil
	}
	if fault.Enabled {
		if err := fault.Err(fault.SiteCoresetBuild); err != nil {
			return nil, 0, fmt.Errorf("%w: coreset construction failed: %v", core.ErrDegenerate, err)
		}
	}
	sub, err := sel()
	if err != nil {
		return nil, 0, err
	}
	seeds, err := netSeeds(ctx, sub, workers)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.EpsKernelParCtx(ctx, sub, eps, seeds, workers)
	if err != nil {
		return nil, 0, err
	}
	out := make([]int, len(res.Indices))
	for i, li := range res.Indices {
		out[i] = cand[li]
	}
	sort.Ints(out)
	return out, res.MRR, nil
}

// netSeeds sweeps the direction net over the candidate matrix and
// returns the deduplicated per-direction argmax indices (first
// occurrence order). Each seed maximizes some nonnegative preference,
// so it lies on the convex boundary of the candidates — exactly the
// points the greedy tightening phase would otherwise spend iterations
// rediscovering.
func netSeeds(ctx context.Context, sub []geom.Vector, workers int) ([]int, error) {
	d := len(sub[0])
	dirs := directionNet(d, maxNetDirections)
	m := mat.FromVectors(sub)
	arg := make([]int, len(dirs))
	err := parallel.For(ctx, len(dirs), workers, grainNet, func(start, end int) error {
		for i := start; i < end; i++ {
			j, _ := m.MaxDotRows(dirs[i], 0, m.Rows())
			if j < 0 {
				return fmt.Errorf("%w: direction net found no support", core.ErrDegenerate)
			}
			arg[i] = j
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(arg))
	seeds := make([]int, 0, len(arg))
	for _, j := range arg {
		if !seen[j] {
			seen[j] = true
			seeds = append(seeds, j)
		}
	}
	return seeds, nil
}

// directionNet enumerates the simplex lattice {c/r : c ∈ ℕ^d, Σc = r}
// for the largest resolution r whose composition count C(r+d−1, d−1)
// stays within cap, always including r = 1 (the axis directions).
// Scaling a direction does not move its argmax, so the lattice points
// are emitted with integer coordinates.
func directionNet(d, cap int) [][]float64 {
	if d == 1 {
		// One dimension has a single direction; every resolution is the
		// same ray (and the composition count is constant, so the
		// resolution search below would never stop).
		return [][]float64{{1}}
	}
	r := 1
	for compositionCount(r+1, d) <= cap {
		r++
	}
	var dirs [][]float64
	comp := make([]int, d)
	var walk func(pos, left int)
	walk = func(pos, left int) {
		if pos == d-1 {
			comp[pos] = left
			dir := make([]float64, d)
			for j, c := range comp {
				dir[j] = float64(c)
			}
			dirs = append(dirs, dir)
			return
		}
		for c := left; c >= 0; c-- {
			comp[pos] = c
			walk(pos+1, left-c)
		}
	}
	walk(0, r)
	return dirs
}

// compositionCount returns C(r+d−1, d−1) — the number of ways to
// write r as an ordered sum of d nonnegative integers — saturating at
// a large sentinel on overflow so the resolution search always stops.
func compositionCount(r, d int) int {
	const sentinel = 1 << 40
	n := 1
	for i := 1; i < d; i++ {
		n = n * (r + i) / i
		if n >= sentinel {
			return sentinel
		}
	}
	return n
}
