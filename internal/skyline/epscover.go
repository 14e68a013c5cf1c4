// The ε-dominance cover: the approximation-aware use of the skyline
// pass (kernel.go). EpsCover relaxes the dominance test by a
// multiplicative slack — an arrival q dies when some window entry r
// has r ≥ (1−eps)·q componentwise — which kills arrivals far earlier
// and keeps the window far smaller than the exact pass, while still
// guaranteeing that every dropped point is (1−eps)-covered by a
// survivor. That is exactly the ε-kernel precondition the sharded
// partition–merge path needs: MRR(survivors over range) ≤ eps.
//
// Two structural facts make the output safe to feed to the exact
// machinery downstream:
//
//   - Every killed point is covered by a *surviving* entry: window
//     entries are only ever tombstoned by a later arrival that
//     dominates them exactly, so coverage chains terminate at a
//     survivor by transitivity.
//   - With eps = 0 the pass is the exact skyline pass, bit for bit —
//     the property the S=1 differential suite pins.
//
// The eps > 0 pass trades the exact descending-sum radix sort for a
// counting-sort over ~1k sum buckets: cover validity never depended
// on the order (the window is append-only, so a kill always names a
// covering entry), the near-descending order just keeps the strongest
// killers early so the window stays small. The whole pass is three
// sequential sweeps — sum, scatter, probe — and the probe's killer
// cache is sized from n by the exact pass's rule (cacheGrid, capped at
// coverGrid), so a 500k shard gets the full 48³-cell grid while a
// 1,000-point range allocates a few hundred cells, not megabytes.
package skyline

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// coverBuckets is the counting-sort resolution for the eps > 0 cover
// pass: enough buckets that high-sum killers still lead the scan,
// few enough that the histogram stays cache-resident.
const coverBuckets = 1024

// coverGrid caps the killer cache's per-dimension resolution, which
// both passes derive from n (cacheGrid in kernel.go).
const coverGrid = 48

// EpsCover returns ascending indices S ⊆ [lo, hi) such that every
// point of pts[lo:hi] is eps-covered by some member of S: for each q
// there is r ∈ S with r_j ≥ (1−eps)·q_j on every dimension — hence
// the maximum regret ratio of S measured against the range is ≤ eps.
// eps = 0 degenerates to the exact skyline of the range. It flattens
// the range into rows and runs EpsCoverRows' pass over them.
func EpsCover(pts []geom.Vector, lo, hi int, eps float64) ([]int, error) {
	if err := checkCover(len(pts), lo, hi, eps); err != nil || lo == hi {
		return nil, err
	}
	d := len(pts[lo])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional points", ErrBadInput)
	}
	for k, p := range pts[lo:hi] {
		if len(p) != d {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadInput, lo+k, len(p), d)
		}
	}
	return cover(geom.Flatten(pts[lo:hi]), lo, eps)
}

// EpsCoverRows is EpsCover over the rows [lo, hi) of r.
func EpsCoverRows(r geom.Rows, lo, hi int, eps float64) ([]int, error) {
	if err := checkCover(r.Len(), lo, hi, eps); err != nil || lo == hi {
		return nil, err
	}
	return cover(r.Slice(lo, hi), lo, eps)
}

// checkCover validates a cover's budget and its range over n points.
func checkCover(n, lo, hi int, eps float64) error {
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return fmt.Errorf("%w: cover eps %v outside [0, 1)", ErrBadInput, eps)
	}
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("%w: cover range [%d, %d) outside [0, %d]", ErrBadInput, lo, hi, n)
	}
	return nil
}

// cover is the cover pass over the non-empty rows r, the range that
// starts at original index base.
func cover(r geom.Rows, base int, eps float64) ([]int, error) {
	if eps == 0 { //kregret:allow floatcmp: exact-skyline sentinel, a configured value, not arithmetic
		if err := validateRows(r, nil); err != nil {
			return nil, err
		}
		return exactPass(nil, r, nil, base)
	}
	n, d, data := r.Len(), r.Dim(), r.Data()

	// Pass 1: accumulate coordinate sums and their range. A non-finite
	// coordinate forces a non-finite sum (infinities never cancel back
	// to a finite value), so finiteness is checked on the sum alone and
	// diagnosed per-coordinate only on failure.
	sums := make([]float64, n)
	minS, maxS := math.Inf(1), math.Inf(-1)
	for k := 0; k < n; k++ {
		p := data[k*d : (k+1)*d]
		s := rowSum(p)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			if !geom.Vector(p).IsFinite() {
				return nil, fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadInput, base+k)
			}
			return nil, fmt.Errorf("%w: point %d coordinate sum overflows", ErrBadInput, base+k)
		}
		sums[k] = s
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}

	// Pass 2: counting-sort scatter into near-descending sum order.
	// Bucket 0 holds the highest sums; ties and within-bucket order
	// follow arrival order, which keeps the pass deterministic.
	bscale := 0.0
	if span := maxS - minS; span > 0 {
		bscale = (coverBuckets - 1) / span
	}
	bucketOf := func(s float64) int {
		b := int((maxS - s) * bscale)
		if b < 0 {
			b = 0
		} else if b >= coverBuckets {
			b = coverBuckets - 1
		}
		return b
	}
	var off [coverBuckets + 1]int
	for k := 0; k < n; k++ {
		off[bucketOf(sums[k])+1]++
	}
	for b := 0; b < coverBuckets; b++ {
		off[b+1] += off[b]
	}
	rows := make([]float64, n*d)
	orig := make([]int32, n)
	for k := 0; k < n; k++ {
		b := bucketOf(sums[k])
		pos := off[b]
		off[b]++
		if d == 4 {
			p, q := data[k*4:k*4+4:k*4+4], rows[pos*4:pos*4+4:pos*4+4]
			q[0], q[1], q[2], q[3] = p[0], p[1], p[2], p[3]
		} else {
			copy(rows[pos*d:(pos+1)*d], data[k*d:(k+1)*d])
		}
		orig[pos] = int32(base + k)
	}

	// Pass 3: the probe. A kill means some window entry (1−eps)-covers
	// the arrival; a miss admits it, so the window stays an
	// eps-antichain. Strict-dominance conservatism in the window (an
	// entry exactly equal to the probe does not kill) only ever keeps
	// extra survivors.
	return probePass(nil, rows, orig, d, cacheGrid(n, min(d-1, 3)), eps)
}
