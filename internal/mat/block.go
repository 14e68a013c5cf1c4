// Blocked-kernel helpers shared by the preprocessing sweeps in
// internal/skyline and internal/happy: indexed gathers, componentwise
// block maxima, dominance on raw rows, and a radix sort keyed by
// float64.
//
// The block-max discipline: a kernel that partitions rows into blocks
// may summarize each block by its componentwise maximum and test the
// summary INSTEAD of the members only when the member test is
// monotone in the summarized point (dominance and the happy-point
// membership bound both are — see DESIGN.md §16). Block summaries are
// plain []float64 scratch owned by the sweep, never PointMatrix row
// views; views handed out by Row remain consume-immediately.
package mat

import (
	"fmt"
	"math"
)

// ComponentMaxInto writes the componentwise maximum of rows [lo, hi)
// into dst (length Dim). The range must be non-empty and in bounds;
// NaN coordinates never win the max (strict `>` against the running
// value, seeded from row lo).
func (m *PointMatrix) ComponentMaxInto(lo, hi int, dst []float64) {
	if lo < 0 || hi > m.n || lo >= hi {
		panic(fmt.Sprintf("mat: ComponentMaxInto range [%d,%d) out of bounds (n=%d)", lo, hi, m.n))
	}
	if len(dst) != m.d {
		panic(fmt.Sprintf("mat: ComponentMaxInto dst has length %d, want %d", len(dst), m.d))
	}
	d := m.d
	copy(dst, m.data[lo*d:(lo+1)*d])
	for i := lo + 1; i < hi; i++ {
		row := m.data[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			if row[j] > dst[j] {
				dst[j] = row[j]
			}
		}
	}
}

// DominatesRows reports whether row a dominates row b: a ≥ b on every
// coordinate and a > b on at least one — the raw-row form of
// geom.Dominates, bit-identical decisions on the same coordinates
// (both use exact comparisons, no tolerance). The two rows must have
// equal length; the d=4 fast path is branch-free because dominance
// scans are the inner loop of every skyline kernel.
func DominatesRows(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: DominatesRows dimension mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 4 {
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		d3 := a[3] - b[3]
		// min ≥ 0 ⟺ no coordinate of a is below b (a NaN difference
		// poisons the min, correctly failing the test); max > 0 ⟺ at
		// least one strict improvement.
		return min(min(d0, d1), min(d2, d3)) >= 0 && max(max(d0, d1), max(d2, d3)) > 0
	}
	strict := false
	for i := range a {
		if a[i] < b[i] || math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// SortIdxByFloatDesc stably sorts idxs so that vals[idxs[k]] is
// non-increasing in k, equal values keeping their prior relative
// order. It is an LSD radix sort on the monotone uint64 image of
// float64 (sign-flipped two's-complement trick), so it handles
// negative values and ±0 correctly; NaN keys are rejected because no
// total order containing them matches a comparison sort. Runs in four
// 16-bit passes — O(n) with small constants, which matters because the
// skyline pass sorts the full dataset by coordinate sum on every
// from-scratch preprocess.
func SortIdxByFloatDesc(vals []float64, idxs []int32) error {
	n := len(idxs)
	if n < 2 {
		return nil
	}
	keys := make([]uint64, n)
	for k, i := range idxs {
		v := vals[i]
		if math.IsNaN(v) {
			return fmt.Errorf("mat: SortIdxByFloatDesc: NaN key at index %d", i)
		}
		b := math.Float64bits(v)
		if b == 1<<63 {
			// −0 keys as +0: the two compare equal, so a comparison
			// sort would keep their prior order — match it.
			b = 0
		}
		// Monotone image: non-negative floats map above negatives and
		// both halves order correctly as unsigned integers.
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		keys[k] = b
	}
	// Each pass scatters src into dst and the two swap roles after
	// it, so no pass copies back; after the fourth swap the sorted
	// order is in idxs again.
	src, dst := keys, make([]uint64, n)
	srcI, dstI := idxs, make([]int32, n)
	var cnt [1 << 16]int32
	for shift := 0; shift < 64; shift += 16 {
		clear(cnt[:])
		for _, k := range src {
			cnt[(k>>shift)&0xffff]++
		}
		// Descending result: offsets accumulate from the top bucket
		// down, each pass remaining stable.
		var sum int32
		for b := len(cnt) - 1; b >= 0; b-- {
			c := cnt[b]
			cnt[b] = sum
			sum += c
		}
		for i, k := range src {
			b := (k >> shift) & 0xffff
			pos := cnt[b]
			cnt[b]++
			dst[pos] = k
			dstI[pos] = srcI[i]
		}
		src, dst = dst, src
		srcI, dstI = dstI, srcI
	}
	return nil
}
