// The skyline pass: one sequential sort-filter pass over packed rows,
// shared by the exact skyline (Of, OfSubset, ComputeParallel, EpsCover
// at eps = 0) and the ε-cover (EpsCover at eps > 0). The tests pin the
// exact pass against an O(n²) brute-force oracle.
//
// Rows arrive in descending coordinate-sum order: exactly, by the
// radix sort mat.SortIdxByFloatDesc, for the exact skyline; nearly, by
// a counting sort, for the cover (epscover.go). Each arrival q is
// probed as (1−eps)·q, which is q itself for the exact skyline, in two
// steps:
//
//   - Killer cache: q's direction (its coordinates over their sum)
//     picks a cell of a grid over the first min(d−1, 3) dimensions,
//     and the cell remembers the row that last killed or was admitted
//     there. Arrivals from one cell share killers, so most arrivals
//     die on one componentwise compare (85% of them on the 100k
//     anti-correlated paper instance). Every cached row is a window
//     entry, so a kill the cache reports is one the window would
//     report too; correctness never depends on cell geometry. Both
//     passes size the grid from n; the exact pass demands strict
//     dominance of the cached row, so duplicates survive.
//   - Dominance window, in two tiers. Hot tier: the entries with the
//     highest kill counts, scanned linearly first, since a few dozen
//     killers reject most arrivals. Cold tier: the remaining entries,
//     clustered by argmax coordinate into blocks of kernelBlock rows
//     summarized by their componentwise maximum (mat.ComponentMaxInto);
//     a block whose maximum fails to dominate the probe on some
//     coordinate is skipped whole, which is sound because dominance
//     is monotone in the dominator. Entries admitted since the last
//     rebuild form an unclustered tail, scanned linearly. Rebuilds
//     re-sort by kill count and re-cluster at geometrically growing
//     window sizes, so total rebuild work is O(|sky| log |sky| · d).
//
// Sum-tie exactness: a dominator's coordinate sum is ≥ the dominated
// point's even in float64 (fl addition is monotone), so in descending
// sum order a window entry can be dominated only by a LATER arrival
// whose float sum ties its own. The window tracks equal-sum entries in
// a side map and tombstones any entry a later tied arrival dominates.
// Tombstoned rows stay in the scan tiers (anything they dominate is
// transitively dominated by their killer, also in the window) and are
// dropped from the result. This makes the exact pass's output the
// exact, order-independent skyline on every input, including
// adversarial float-sum ties where a plain SFS window can leak a
// dominated point.
package skyline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/mat"
)

const (
	// kernelBlock rows per cold-tier block max.
	kernelBlock = 16
	// kernelHot: entries kept in the linear kill-count tier.
	kernelHot = 256
	// kernelRebuild0: window size triggering the first rebuild;
	// subsequent triggers grow by 5/4.
	kernelRebuild0 = 128
	// cancelEvery: arrivals between cancellation checks in the probe
	// pass.
	cancelEvery = 4096
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
	// most recent dominated()/dominated4() kill — the killer cache
	// reads it to remember which entry handles a direction cell. Only
	// valid immediately after a probe that returned true.
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
// member test both scalarize into registers.
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

// exactPass returns the exact skyline of the rows r.Row(subset[k]) or,
// when subset is nil, of every row of r, as original indices
// ascending: subset[k], or base+k without a subset. It sorts the
// points by descending coordinate sum, packs them in that order into
// the one copy of the rows the pass keeps, and probes them. canceled,
// when not nil, is the caller's context's Err.
func exactPass(canceled func() error, r geom.Rows, subset []int, base int) ([]int, error) {
	n := len(subset)
	if subset == nil {
		n = r.Len()
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
	d := r.Dim()
	data := r.Data()
	sums := make([]float64, n)
	ord := make([]int32, n)
	for k := range sums {
		i := at(k)
		sums[k] = rowSum(data[i*d : (i+1)*d])
		ord[k] = int32(k)
	}
	if err := mat.SortIdxByFloatDesc(sums, ord); err != nil {
		return nil, fmt.Errorf("skyline: kernel sort: %w", err)
	}
	rows := make([]float64, n*d)
	for pos, k := range ord {
		i := at(int(k))
		if d == 4 {
			p, q := data[i*4:i*4+4:i*4+4], rows[pos*4:pos*4+4:pos*4+4]
			q[0], q[1], q[2], q[3] = p[0], p[1], p[2], p[3]
		} else {
			copy(rows[pos*d:(pos+1)*d], data[i*d:(i+1)*d])
		}
		ord[pos] = int32(base + i)
	}
	return probePass(canceled, rows, ord, d, cacheGrid(n, min(d-1, 3)), 0)
}

// rowSum is the coordinate sum both sort orders key on. The probe
// loops recompute it with the same additions in the same order, so
// the window's sum-tie map sees the sort key's exact bits.
func rowSum(p []float64) float64 {
	if len(p) == 4 {
		return p[0] + p[1] + p[2] + p[3]
	}
	s := 0.0
	for _, x := range p {
		s += x
	}
	return s
}

// cacheGrid sizes a pass's killer cache from n: the largest
// per-dimension resolution g ≤ coverGrid with g^kd ≤ n/3 cells (32 at
// n = 100k, d = 4; 48 from n ≈ 332k), so a small input such as the
// sharded path's ~50-point merged core allocates a few cells, not a
// megabyte.
func cacheGrid(n, kd int) int {
	g := 1
	for g < coverGrid {
		cells := 1
		for range kd {
			cells *= g + 1
		}
		if cells > n/3 {
			break
		}
		g++
	}
	return g
}

// probePass probes the rows, packed d-wide in arrival order with
// orig[pos] the original index of row pos, through a killer cache of
// grid cells per keyed dimension in front of a fresh window, and
// returns the survivors ascending. The probe of arrival q is
// (1−eps)·q. The cache kills on strict dominance when eps = 0, as the
// window does, so a duplicate of a cached row survives; for eps > 0 it
// kills on r ≥ (1−eps)·q, which only ever drops points the cover
// admits to drop. canceled, when not nil, is called every cancelEvery
// arrivals, and an error from it ends the pass.
func probePass(canceled func() error, rows []float64, orig []int32, d, grid int, eps float64) ([]int, error) {
	w := newDomWindow(d)
	kd := min(d-1, 3)
	slots := 1
	for range kd {
		slots *= grid
	}
	// The cache is consulted only for arrivals with strictly positive
	// coordinates, which is what lets the zero value mark an empty
	// slot: a zero row can never cover a positive probe, so the cache
	// needs no initialization sweep.
	cache := make([]float64, slots*d)
	var err error
	if d == 4 {
		err = probe4(canceled, w, rows, orig, cache, grid, eps)
	} else {
		err = probeD(canceled, w, rows, orig, cache, d, kd, grid, eps)
	}
	if err != nil {
		return nil, err
	}
	return w.result(), nil
}

// cell clamps a scaled direction coordinate to a grid index.
func cell(x float64, grid int) int {
	c := int(x)
	if c < 0 {
		return 0
	}
	if c >= grid {
		return grid - 1
	}
	return c
}

// probe4 is the d=4 specialization of the probe loop: the sum, the
// scaled probe, the cell key and the cached-row compare all scalarize
// into registers, so a cache hit retires in a handful of instructions
// and only cache misses reach the dominance window.
func probe4(canceled func() error, w *domWindow, rows []float64, orig []int32, cache []float64, grid int, eps float64) error {
	scale, exact := 1-eps, eps == 0 //kregret:allow floatcmp: exact-skyline sentinel, a configured value, not arithmetic
	g := float64(grid)
	probe := make([]float64, 4)
	for pos := range orig {
		if canceled != nil && pos%cancelEvery == 0 {
			if err := canceled(); err != nil {
				return fmt.Errorf("skyline: canceled: %w", err)
			}
		}
		q := rows[pos*4 : pos*4+4 : pos*4+4]
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		p0, p1, p2, p3 := scale*q0, scale*q1, scale*q2, scale*q3
		s := q0 + q1 + q2 + q3
		key := -1
		if q0 > 0 && q1 > 0 && q2 > 0 && q3 > 0 {
			inv := g / s //kregret:allow naninf: all coordinates strictly positive, so s > 0
			key = (cell(q0*inv, grid)*grid+cell(q1*inv, grid))*grid + cell(q2*inv, grid)
			kc := cache[key*4 : key*4+4 : key*4+4]
			if kc[0] >= p0 && kc[1] >= p1 && kc[2] >= p2 && kc[3] >= p3 &&
				(!exact || kc[0] > p0 || kc[1] > p1 || kc[2] > p2 || kc[3] > p3) {
				continue
			}
		}
		probe[0], probe[1], probe[2], probe[3] = p0, p1, p2, p3
		if w.dominated(probe) {
			if key >= 0 {
				copy(cache[key*4:key*4+4], w.win[w.lastKill*4:w.lastKill*4+4])
			}
			continue
		}
		w.add(q, orig[pos], math.Float64bits(s))
		if key >= 0 {
			copy(cache[key*4:key*4+4], q)
		}
	}
	return nil
}

// probeD is the general-dimension probe loop; structure mirrors
// probe4.
func probeD(canceled func() error, w *domWindow, rows []float64, orig []int32, cache []float64, d, kd, grid int, eps float64) error {
	scale, exact := 1-eps, eps == 0 //kregret:allow floatcmp: exact-skyline sentinel, a configured value, not arithmetic
	g := float64(grid)
	probe := make([]float64, d)
	for pos := range orig {
		if canceled != nil && pos%cancelEvery == 0 {
			if err := canceled(); err != nil {
				return fmt.Errorf("skyline: canceled: %w", err)
			}
		}
		q := rows[pos*d : (pos+1)*d]
		s := 0.0
		positive := true
		for j := 0; j < d; j++ {
			probe[j] = scale * q[j]
			s += q[j]
			if q[j] <= 0 {
				positive = false
			}
		}
		key := -1
		if positive {
			inv := g / s //kregret:allow naninf: all coordinates strictly positive, so s > 0
			key = 0
			for j := 0; j < kd; j++ {
				key = key*grid + cell(q[j]*inv, grid)
			}
			kc := cache[key*d : (key+1)*d : (key+1)*d]
			covered, strict := true, !exact
			for j := 0; j < d; j++ {
				if kc[j] < probe[j] {
					covered = false
					break
				}
				if kc[j] > probe[j] {
					strict = true
				}
			}
			if covered && strict {
				continue
			}
		}
		if w.dominated(probe) {
			if key >= 0 {
				copy(cache[key*d:(key+1)*d], w.win[w.lastKill*d:(w.lastKill+1)*d])
			}
			continue
		}
		w.add(q, orig[pos], math.Float64bits(s))
		if key >= 0 {
			copy(cache[key*d:(key+1)*d], q)
		}
	}
	return nil
}
