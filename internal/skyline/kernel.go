// The blocked skyline kernel: a sort-filter-skyline pass over packed
// rows with a two-tier dominance window. It is the package's only
// skyline algorithm: Of, OfSubset and ComputeParallel all run it, and
// the tests pin it against an O(n²) brute-force oracle.
//
// Structure, in arrival order of the descending-coordinate-sum radix
// sort (mat.SortIdxByFloatDesc — O(n), it replaces the comparison
// sort as the setup cost at n=100k):
//
//   - Hot tier: the window entries with the highest kill counts,
//     scanned linearly first. Dominance kills are heavily skewed — a
//     few dozen "killer" points reject the vast majority of arrivals
//     — so a periodically re-sorted kill-count prefix ends most scans
//     in a handful of comparisons.
//   - Cold tier: the remaining entries, clustered by argmax
//     coordinate into blocks of kernelBlock rows summarized by their
//     componentwise maximum (mat.ComponentMaxInto). A block whose
//     maximum fails to dominate the arrival on some coordinate is
//     skipped whole — sound because dominance is monotone in the
//     dominator (see the block-max discipline in internal/mat).
//   - Unclustered tail: entries admitted since the last rebuild,
//     scanned linearly. Rebuilds re-sort by kill count and re-cluster
//     at geometrically growing window sizes, so total rebuild work is
//     O(|sky| log |sky| · d) — noise next to the scan.
//
// Sum-tie exactness: a dominator's coordinate sum is ≥ the dominated
// point's even in float64 (fl addition is monotone), so sorting by
// descending sum means a window entry can be dominated only by a
// LATER arrival whose float sum ties its own. The window tracks
// equal-sum entries in a side map and tombstones any entry a later
// tied arrival dominates. Tombstoned rows stay in the scan tiers —
// harmless, since anything they dominate is transitively dominated by
// their killer, which is also in the window — and are dropped from
// the final result. This makes the kernel's output the exact,
// order-independent skyline on every input, including adversarial
// float-sum ties where a plain SFS window can leak a dominated point.
package skyline

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/parallel"
)

const (
	// kernelBlock rows per cold-tier block max.
	kernelBlock = 16
	// kernelHot: entries kept in the linear kill-count tier.
	kernelHot = 256
	// kernelRebuild0: window size triggering the first rebuild;
	// subsequent triggers grow by 5/4.
	kernelRebuild0 = 128
	// kernelMinN: points per stripe in computeParallelKernel. It caps
	// the stripe count at ⌈n/kernelMinN⌉, so inputs of at most
	// kernelMinN points run as one sequential kernel pass.
	kernelMinN = 512
)

// domWindow is the two-tier dominance window. All row storage is
// plain scratch owned by the window (never PointMatrix views).
type domWindow struct {
	d       int
	win     []float64 // packed rows, rebuild order
	winIdx  []int32   // original point index per entry
	killCnt []int32
	dead    []bool // tombstoned by a sum-tied later dominator

	sumPos map[uint64][]int32 // float bits of row sum -> entry positions

	bmax      []float64 // cold-tier block maxima
	hot       int       // entries [0,hot) scanned linearly first
	clustered int       // entries [hot,clustered) covered by bmax
	rebuildAt int

	// lastKill is the window position of the entry credited with the
	// most recent dominated()/dominated4() kill — the ε-cover's killer
	// cache reads it to remember which entry handles a direction cell.
	// Only valid immediately after a probe that returned true.
	lastKill int
}

func newDomWindow(d int) *domWindow {
	return &domWindow{
		d:         d,
		sumPos:    make(map[uint64][]int32),
		rebuildAt: kernelRebuild0,
	}
}

// dominated reports whether any window entry dominates q, crediting
// the killer's count. Tombstoned entries may report true: their
// killer is also in the window and dominates q transitively, so the
// decision is unchanged.
func (w *domWindow) dominated(q []float64) bool {
	d := w.d
	if d == 4 {
		return w.dominated4(q)
	}
	for i := 0; i < w.hot; i++ {
		if mat.DominatesRows(w.win[i*d:(i+1)*d], q) {
			w.killCnt[i]++
			w.lastKill = i
			return true
		}
	}
	nb := (w.clustered - w.hot + kernelBlock - 1) / kernelBlock
	for b := 0; b < nb; b++ {
		bm := w.bmax[b*d : (b+1)*d]
		skip := false
		for j := 0; j < d; j++ {
			if bm[j] < q[j] {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		lo := w.hot + b*kernelBlock
		hi := min(lo+kernelBlock, w.clustered)
		for i := lo; i < hi; i++ {
			if mat.DominatesRows(w.win[i*d:(i+1)*d], q) {
				w.killCnt[i]++
				w.lastKill = i
				return true
			}
		}
	}
	for i := w.clustered; i < len(w.winIdx); i++ {
		if mat.DominatesRows(w.win[i*d:(i+1)*d], q) {
			w.killCnt[i]++
			w.lastKill = i
			return true
		}
	}
	return false
}

// dominated4 is the d=4 specialization: the block probe and the
// member test both scalarize into registers (this loop is ~2/3 of
// kernel preprocessing time at the bench shape).
func (w *domWindow) dominated4(q []float64) bool {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	win := w.win
	for i := 0; i < w.hot; i++ {
		r := win[i*4 : i*4+4]
		if min(min(r[0]-q0, r[1]-q1), min(r[2]-q2, r[3]-q3)) >= 0 &&
			max(max(r[0]-q0, r[1]-q1), max(r[2]-q2, r[3]-q3)) > 0 {
			w.killCnt[i]++
			w.lastKill = i
			return true
		}
	}
	nb := (w.clustered - w.hot + kernelBlock - 1) / kernelBlock
	for b := 0; b < nb; b++ {
		bm := w.bmax[b*4 : b*4+4]
		if bm[0] < q0 || bm[1] < q1 || bm[2] < q2 || bm[3] < q3 {
			continue
		}
		lo := w.hot + b*kernelBlock
		hi := min(lo+kernelBlock, w.clustered)
		for i := lo; i < hi; i++ {
			r := win[i*4 : i*4+4]
			if min(min(r[0]-q0, r[1]-q1), min(r[2]-q2, r[3]-q3)) >= 0 &&
				max(max(r[0]-q0, r[1]-q1), max(r[2]-q2, r[3]-q3)) > 0 {
				w.killCnt[i]++
				w.lastKill = i
				return true
			}
		}
	}
	for i := w.clustered; i < len(w.winIdx); i++ {
		r := win[i*4 : i*4+4]
		if min(min(r[0]-q0, r[1]-q1), min(r[2]-q2, r[3]-q3)) >= 0 &&
			max(max(r[0]-q0, r[1]-q1), max(r[2]-q2, r[3]-q3)) > 0 {
			w.killCnt[i]++
			w.lastKill = i
			return true
		}
	}
	return false
}

// add admits q (original index idx, coordinate-sum bits sumBits) to
// the window, tombstoning any sum-tied earlier entry it dominates.
func (w *domWindow) add(q []float64, idx int32, sumBits uint64) {
	d := w.d
	for _, pos := range w.sumPos[sumBits] {
		if !w.dead[pos] && mat.DominatesRows(q, w.win[pos*int32(d):(pos+1)*int32(d)]) {
			w.dead[pos] = true
		}
	}
	pos := int32(len(w.winIdx))
	w.win = append(w.win, q...)
	w.winIdx = append(w.winIdx, idx)
	w.killCnt = append(w.killCnt, 0)
	w.dead = append(w.dead, false)
	w.sumPos[sumBits] = append(w.sumPos[sumBits], pos)
	if len(w.winIdx) >= w.rebuildAt {
		w.rebuild()
		w.rebuildAt = len(w.winIdx) * 5 / 4
	}
}

// rebuild re-sorts entries by kill count (hot tier) and re-clusters
// the cold tier by argmax coordinate so block maxima stay tight.
func (w *domWindow) rebuild() {
	d := w.d
	nw := len(w.winIdx)
	ord := make([]int, nw)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		if w.killCnt[ord[a]] != w.killCnt[ord[b]] {
			return w.killCnt[ord[a]] > w.killCnt[ord[b]]
		}
		return ord[a] < ord[b]
	})
	h := min(kernelHot, nw)
	cold := ord[h:]
	am := func(i int) int {
		r := w.win[i*d : (i+1)*d]
		best := 0
		for j := 1; j < d; j++ {
			if r[j] > r[best] {
				best = j
			}
		}
		return best
	}
	sort.Slice(cold, func(a, b int) bool {
		ga, gb := am(cold[a]), am(cold[b])
		if ga != gb {
			return ga < gb
		}
		return w.win[cold[a]*d+ga] > w.win[cold[b]*d+gb]
	})
	nwin := make([]float64, nw*d)
	nidx := make([]int32, nw)
	nkill := make([]int32, nw)
	ndead := make([]bool, nw)
	remap := make([]int32, nw) // old position -> new position, for sumPos
	for pos, o := range ord {
		copy(nwin[pos*d:(pos+1)*d], w.win[o*d:(o+1)*d])
		nidx[pos] = w.winIdx[o]
		nkill[pos] = w.killCnt[o]
		ndead[pos] = w.dead[o]
		remap[o] = int32(pos)
	}
	for k, ps := range w.sumPos {
		for i, p := range ps {
			ps[i] = remap[p]
		}
		w.sumPos[k] = ps
	}
	w.win, w.winIdx, w.killCnt, w.dead = nwin, nidx, nkill, ndead
	w.hot = h
	w.clustered = nw
	nb := (nw - h + kernelBlock - 1) / kernelBlock
	if cap(w.bmax) < nb*d {
		w.bmax = make([]float64, 0, nb*d)
	}
	w.bmax = w.bmax[:nb*d]
	for b := 0; b < nb; b++ {
		lo := h + b*kernelBlock
		hi := min(lo+kernelBlock, nw)
		bm := w.bmax[b*d : (b+1)*d]
		copy(bm, w.win[lo*d:(lo+1)*d])
		for i := lo + 1; i < hi; i++ {
			r := w.win[i*d : (i+1)*d]
			for j := 0; j < d; j++ {
				if r[j] > bm[j] {
					bm[j] = r[j]
				}
			}
		}
	}
}

// result returns the surviving original indices, ascending.
func (w *domWindow) result() []int {
	out := make([]int, 0, len(w.winIdx))
	for i, idx := range w.winIdx {
		if !w.dead[i] {
			out = append(out, int(idx))
		}
	}
	sort.Ints(out)
	return out
}

// computeKernel is the blocked skyline pass over all of pts. It
// assumes validate(pts) passed.
func computeKernel(pts []geom.Vector) ([]int, error) {
	return computeKernelIndexed(pts, nil)
}

// computeKernelIndexed runs the kernel over pts restricted to subset
// (nil means all points), returning original indices ascending.
func computeKernelIndexed(pts []geom.Vector, subset []int) ([]int, error) {
	n := len(subset)
	if subset == nil {
		n = len(pts)
	}
	if n == 0 {
		return nil, nil
	}
	at := func(k int) int {
		if subset == nil {
			return k
		}
		return subset[k]
	}
	d := len(pts[at(0)])
	rows := make([]float64, n*d)
	sums := make([]float64, n)
	ord := make([]int32, n)
	for k := 0; k < n; k++ {
		p := pts[at(k)]
		copy(rows[k*d:(k+1)*d], p)
		sums[k] = p.Sum()
		ord[k] = int32(k)
	}
	if err := mat.SortIdxByFloatDesc(sums, ord); err != nil {
		return nil, fmt.Errorf("skyline: kernel sort: %w", err)
	}
	w := newDomWindow(d)
	for _, k := range ord {
		q := rows[int(k)*d : (int(k)+1)*d]
		if !w.dominated(q) {
			w.add(q, int32(at(int(k))), math.Float64bits(sums[k]))
		}
	}
	return w.result(), nil
}

// computeParallelKernel stripes pts across workers, runs the kernel
// per stripe, then runs it once more over the union of stripe
// skylines — skyline(pts) == skyline(∪ skyline(stripe)) because a
// point dominated in pts is dominated by some skyline point of its
// own stripe. Exactness of the per-stripe kernel makes the result
// identical to the sequential kernel on every input.
func computeParallelKernel(ctx context.Context, pts []geom.Vector, workers int) ([]int, error) {
	n := len(pts)
	stripes := workers
	// Striping trades extra total work (weaker per-stripe pruning plus
	// the union pass) for wall-clock, so never stripe wider than the
	// hardware can actually run concurrently — on an oversubscribed
	// box the sequential kernel is the faster plan for every width.
	if g := runtime.GOMAXPROCS(0); stripes > g {
		stripes = g
	}
	if stripes > (n+kernelMinN-1)/kernelMinN {
		stripes = (n + kernelMinN - 1) / kernelMinN
	}
	if stripes < 2 {
		return computeKernel(pts)
	}
	per := (n + stripes - 1) / stripes
	parts := make([][]int, stripes)
	err := parallel.For(ctx, stripes, workers, 1, func(start, end int) error {
		for s := start; s < end; s++ {
			lo, hi := s*per, min((s+1)*per, n)
			if lo >= hi {
				continue
			}
			subset := make([]int, hi-lo)
			for i := range subset {
				subset[i] = lo + i
			}
			part, err := computeKernelIndexed(pts, subset)
			if err != nil {
				return err
			}
			parts[s] = part
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var union []int
	for _, p := range parts {
		union = append(union, p...)
	}
	return computeKernelIndexed(pts, union)
}
