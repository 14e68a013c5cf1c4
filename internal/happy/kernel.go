// Blocked subjugation kernel: the happy-point filter reorganized as a
// banded row-sweep over a packed mat.PointMatrix, decision-equal to
// the scalar subjugates path.
//
// # Why decision-equality (not value-equality) suffices
//
// subjugates(p, q) depends on m(q) = min over the fixed value set
// V = {g(0), g(1)} ∪ {g(q_j/p_j) : q_j/p_j ∈ (0,1)} only through the
// three-way classification m < 1−eps / m > 1+eps / boundary, and the
// boundary branch ignores m's exact value. So a kernel that computes
// each MEMBER of V with bit-identical arithmetic may evaluate them in
// any order, stop as soon as one value proves m < 1−eps, and skip any
// value it can PROVE exceeds 1+eps — the classification, and hence
// the happy set, is unchanged. Three sound skip rules are used, each
// derived in real arithmetic and applied with a guard band
// (subjGuard = 1e-6) that exceeds the accumulated float64 rounding of
// the quantities involved by many orders of magnitude:
//
//  1. Sum prefix: g(λ) ≥ λ(1−Σp) + Σq for every λ∈[0,1] (dropping
//     the positive-part clamps), so m ≥ Σq − max(0, Σp−1). An
//     adversary with Σp < Σq − guard cannot subjugate a candidate
//     with Σq > 1 + eps + 2·guard. Adversaries are sorted by
//     descending sum, so this prunes a whole suffix per candidate —
//     the "likely subjugators come first" ordering.
//  2. Block max: g is non-increasing in p, so for the componentwise
//     block maximum bx of a block, m_p(q) ≥ m_bx(q) for every member
//     p. One decide call on bx with threshold 1+eps+guard skips the
//     whole block.
//  3. Pass skip: the same linear bound at one breakpoint,
//     g(λ_j) ≥ λ_j(1−Σp) + Σq, rearranged division-free as
//     q_j·(Σp−1) < (Σq − thresh − guard)·p_j, skips the breakpoint's
//     O(d) evaluation pass entirely. Breakpoints with λ_j ∉ (0,1)
//     are skipped exactly as the scalar path skips them (q_j ≥ p_j
//     implies fl(q_j/p_j) ≥ 1 by monotonicity of rounding).
//
// Anything the rules cannot resolve falls back to the scalar
// subjugates on the original vectors, so eps-boundary inputs take the
// exact legacy path. The differential and fuzz suites in
// kernel_test.go pin all of this the way FuzzKernels pins DotRow.
package happy

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/mat"
)

const (
	// subjGuard is the guard band separating the real-arithmetic skip
	// bounds from the float64 values the scalar path computes. The
	// bounds' rounding error is ≤ a few ulps of the coordinate sums
	// (≈1e-13 for sums up to ~1e3); 1e-6 dwarfs it while pruning
	// nothing that matters statistically.
	subjGuard = 1e-6
	// sweepBand: adversaries are partitioned into contiguous bands of
	// the descending-sum order; within a band rows are re-clustered by
	// argmax coordinate so block maxima stay tight. Band boundaries
	// preserve the sum-prefix exit at band granularity.
	sweepBand = 256
	// sweepBlock is the block-max granularity inside a band.
	sweepBlock = 16
	// kernelMinSky: below this many skyline points the banded setup
	// costs more than the scalar scan it saves.
	kernelMinSky = 64
)

// decideRow classifies subjugation of candidate q by adversary p from
// packed rows: 1 means proven (some member of V is < 1−eps), -1 means
// refuted (every member of V exceeds thresh ≥ 1+eps), 0 means
// unresolved — the caller must fall back to the scalar subjugates.
// sq and sp are the rows' coordinate sums; margin is
// sq − thresh − subjGuard, precomputed by the caller; thresh is
// 1+eps for a real adversary and 1+eps+subjGuard for a block maximum.
func decideRow(p, q []float64, sq, sp, margin, thresh float64) int {
	d := len(q)
	spm1 := sp - 1
	bnd := margin > 0 && spm1 > 0
	// Branch-free common case: g(1) and the all-passes-skipped test.
	acc1 := 1.0
	skipAll := true
	for j := 0; j < d; j++ {
		acc1 += max(0, q[j]-p[j])
		if !(q[j] >= p[j] || (bnd && q[j]*spm1 < margin*p[j])) {
			skipAll = false
		}
	}
	if skipAll && acc1 > thresh && sq > thresh {
		return -1
	}
	if sq < 1-eps {
		return 1
	}
	boundary := sq <= thresh || acc1 <= thresh
	for j := 0; j < d; j++ {
		if bnd && q[j]*spm1 < margin*p[j] {
			continue
		}
		lam := q[j] / p[j]
		if lam <= 0 || lam >= 1 {
			continue
		}
		acc := lam
		for k := 0; k < d; k++ {
			acc += max(0, q[k]-lam*p[k])
		}
		if acc < 1-eps {
			return 1
		}
		if acc <= thresh {
			boundary = true
		}
	}
	if boundary {
		return 0
	}
	return -1
}

// decide4 is decideRow specialized to d=4 — the bench dimension —
// with every row element scalarized into registers. Must remain
// decision-identical to decideRow (fuzz-pinned in kernel_test.go).
func decide4(p []float64, q0, q1, q2, q3, sq, sp, margin, thresh float64) int {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	spm1 := sp - 1
	bnd := margin > 0 && spm1 > 0
	acc1 := 1.0 + max(0, q0-p0) + max(0, q1-p1) + max(0, q2-p2) + max(0, q3-p3)
	skipAll := (q0 >= p0 || (bnd && q0*spm1 < margin*p0)) &&
		(q1 >= p1 || (bnd && q1*spm1 < margin*p1)) &&
		(q2 >= p2 || (bnd && q2*spm1 < margin*p2)) &&
		(q3 >= p3 || (bnd && q3*spm1 < margin*p3))
	if skipAll && acc1 > thresh && sq > thresh {
		return -1
	}
	if sq < 1-eps {
		return 1
	}
	boundary := sq <= thresh || acc1 <= thresh
	for j := 0; j < 4; j++ {
		var qj, pj float64
		switch j {
		case 0:
			qj, pj = q0, p0
		case 1:
			qj, pj = q1, p1
		case 2:
			qj, pj = q2, p2
		case 3:
			qj, pj = q3, p3
		}
		if bnd && qj*spm1 < margin*pj {
			continue
		}
		lam := qj / pj
		if lam <= 0 || lam >= 1 {
			continue
		}
		acc := lam + max(0, q0-lam*p0) + max(0, q1-lam*p1) + max(0, q2-lam*p2) + max(0, q3-lam*p3)
		if acc < 1-eps {
			return 1
		}
		if acc <= thresh {
			boundary = true
		}
	}
	if boundary {
		return 0
	}
	return -1
}

// subjSweep is the banded adversary layout: skyline rows gathered
// into a packed matrix in descending-sum band order with argmax
// clustering inside each band, plus the block/band summaries the skip
// rules need. Built once per preprocess (or per epoch) and shared
// read-only by every candidate scan, including parallel ones.
type subjSweep struct {
	rows geom.Rows // original points, for the scalar fallback
	m    *mat.PointMatrix
	sums []float64 // row sums, sweep order
	orig []int32   // sweep position -> original point index
	pos  []int32   // i -> sweep position of sky[i]
	sky  []int

	bandMaxSum []float64 // per band: max member sum (non-increasing)
	blockMax   []float64 // per block: componentwise max, d floats each
	blockSum   []float64 // per block: coordinate sum of blockMax
}

// newSubjSweep builds the sweep for adversary set sky over the rows r.
// The caller guarantees sky is sorted ascending and r is validated
// (finite, strictly positive).
func newSubjSweep(r geom.Rows, sky []int) *subjSweep {
	n := len(sky)
	d := r.Dim()
	sums := make([]float64, n)
	for i, idx := range sky {
		sums[i] = r.Row(idx).Sum()
	}
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	// Descending sum, stable — ties keep ascending sky order.
	if err := mat.SortIdxByFloatDesc(sums, ord); err != nil {
		// Unreachable for validated inputs (finite positive coords);
		// degrade to a comparison sort rather than panic.
		sort.SliceStable(ord, func(a, b int) bool { return sums[ord[a]] > sums[ord[b]] })
	}
	// Cluster each band by argmax coordinate (specialists together),
	// descending on that coordinate, so block maxima are tight. Each
	// point's key is computed once, and the stable sort keeps the
	// descending-sum order among equal keys.
	type bandKey struct {
		arg int
		val float64
		o   int32
	}
	keys := make([]bandKey, min(n, sweepBand))
	for lo := 0; lo < n; lo += sweepBand {
		seg := ord[lo:min(lo+sweepBand, n)]
		ks := keys[:len(seg)]
		for i, o := range seg {
			v := r.Row(sky[o])
			best := 0
			for j := 1; j < d; j++ {
				if v[j] > v[best] {
					best = j
				}
			}
			ks[i] = bandKey{arg: best, val: v[best], o: o}
		}
		slices.SortStableFunc(ks, func(a, b bandKey) int {
			switch {
			case a.arg != b.arg:
				return cmp.Compare(a.arg, b.arg)
			case a.val > b.val:
				return -1
			case a.val < b.val:
				return 1
			}
			return 0
		})
		for i, k := range ks {
			seg[i] = k.o
		}
	}
	gather := make([]int, n)
	orig := make([]int32, n)
	pos := make([]int32, n)
	sweepSums := make([]float64, n)
	for p, o := range ord {
		gather[p] = sky[o]
		orig[p] = int32(sky[o])
		pos[o] = int32(p)
		sweepSums[p] = sums[o]
	}
	m, err := mat.FromRows(r).Gather(gather)
	if err != nil {
		// Unreachable: indices come straight from sky.
		panic("happy: sweep gather: " + err.Error())
	}
	nBands := (n + sweepBand - 1) / sweepBand
	bandMaxSum := make([]float64, nBands)
	for b := 0; b < nBands; b++ {
		mx := sweepSums[b*sweepBand]
		for i := b*sweepBand + 1; i < min((b+1)*sweepBand, n); i++ {
			if sweepSums[i] > mx {
				mx = sweepSums[i]
			}
		}
		bandMaxSum[b] = mx
	}
	nBlocks := (n + sweepBlock - 1) / sweepBlock
	blockMax := make([]float64, nBlocks*d)
	blockSum := make([]float64, nBlocks)
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*sweepBlock, min((b+1)*sweepBlock, n)
		bm := blockMax[b*d : (b+1)*d]
		m.ComponentMaxInto(lo, hi, bm)
		var s float64
		for _, x := range bm {
			s += x
		}
		blockSum[b] = s
	}
	return &subjSweep{
		rows: r, m: m, sums: sweepSums, orig: orig, pos: pos, sky: sky,
		bandMaxSum: bandMaxSum, blockMax: blockMax, blockSum: blockSum,
	}
}

// firstSubjugator scans the sweep for an adversary subjugating the
// candidate at sweep position qpos, returning its original point
// index, or -1 when the candidate is happy. The witness is the first
// subjugator in SWEEP order — deterministic, though generally a
// different (equally valid) witness than the scalar scan's.
func (s *subjSweep) firstSubjugator(qpos int) int32 {
	n := len(s.orig)
	d := s.m.Dim()
	q := s.m.Row(qpos)
	sq := s.sums[qpos]
	if sq < 1-eps {
		// g(0) = Σq < 1−eps: every adversary subjugates q.
		if n == 1 {
			return -1
		}
		if qpos == 0 {
			return s.orig[1]
		}
		return s.orig[0]
	}
	const threshPair = 1 + eps
	const threshBlock = 1 + eps + subjGuard
	marginPair := sq - threshPair - subjGuard
	marginBlock := sq - threshBlock - subjGuard
	// Sum skips need Σq clear of the boundary zone (rule 1's Σp<1 case
	// needs Σq > 1+eps with slack); inside the zone scan everything.
	sumSkipOK := sq > 1+eps+2*subjGuard
	var q0, q1, q2, q3 float64
	is4 := d == 4
	if is4 {
		q0, q1, q2, q3 = q[0], q[1], q[2], q[3]
	}
	nBands := len(s.bandMaxSum)
	blocksPerBand := sweepBand / sweepBlock
	for band := 0; band < nBands; band++ {
		if sumSkipOK && s.bandMaxSum[band] < sq-subjGuard {
			break // bands are sum-sorted: nothing later can subjugate
		}
		bStart := band * blocksPerBand
		bEnd := min(bStart+blocksPerBand, (n+sweepBlock-1)/sweepBlock)
		for b := bStart; b < bEnd; b++ {
			bm := s.blockMax[b*d : (b+1)*d]
			var probe int
			if is4 {
				probe = decide4(bm, q0, q1, q2, q3, sq, s.blockSum[b], marginBlock, threshBlock)
			} else {
				probe = decideRow(bm, q, sq, s.blockSum[b], marginBlock, threshBlock)
			}
			if probe == -1 {
				continue // no member of the block can subjugate q
			}
			lo, hi := b*sweepBlock, min((b+1)*sweepBlock, n)
			for i := lo; i < hi; i++ {
				if i == qpos {
					continue
				}
				sp := s.sums[i]
				if sumSkipOK && sp < sq-subjGuard {
					continue // rule 1, per element (band order is clustered)
				}
				var v int
				if is4 {
					v = decide4(s.m.Row(i), q0, q1, q2, q3, sq, sp, marginPair, threshPair)
				} else {
					v = decideRow(s.m.Row(i), q, sq, sp, marginPair, threshPair)
				}
				switch v {
				case 1:
					return s.orig[i]
				case 0:
					// eps-boundary: exact legacy path on the originals.
					if subjugates(s.rows.Row(int(s.orig[i])), s.rows.Row(int(s.orig[qpos]))) {
						return s.orig[i]
					}
				}
			}
		}
	}
	return -1
}
