// Package dataset provides the data substrate for the experiments:
// the synthetic generators used by the paper's Section V-C
// (independent / correlated / anti-correlated in the style of
// Börzsönyi, Kossmann and Stocker, ICDE 2001), normalization to the
// paper's (0,1] domain, CSV input/output, and synthetic stand-ins for
// the four real datasets of Table III.
//
// The paper's real datasets (household from ipums.org, nba from
// basketballreference.com, color from the UCI KDD archive, stocks
// from pages.swcp.com) are not redistributable and not reachable from
// this offline build, so realdata.go generates stand-ins with the
// same name, dimensionality and cardinality, tuned so the candidate
// set sizes |D_sky|, |D_happy| and |D_conv| have the same character
// as Table III (a few thousand / a few hundred / slightly fewer).
// Every experimental claim reproduced from the paper depends on that
// structure, not on the original attribute semantics; see DESIGN.md §4.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// ErrBadParams flags invalid generator parameters.
var ErrBadParams = errors.New("dataset: bad parameters")

// minCoord is the floor applied to every generated coordinate so the
// paper's strict-positivity assumption holds.
const minCoord = 1e-6

func checkND(n, d int) error {
	if n < 0 {
		return fmt.Errorf("%w: n = %d", ErrBadParams, n)
	}
	if d < 1 {
		return fmt.Errorf("%w: d = %d", ErrBadParams, d)
	}
	return nil
}

// clampCoord forces a coordinate into [minCoord, 1].
func clampCoord(x float64) float64 {
	switch {
	case x < minCoord:
		return minCoord
	case x > 1:
		return 1
	}
	return x
}

// Independent generates n points with coordinates drawn uniformly and
// independently from (0, 1].
func Independent(n, d int, seed int64) ([]geom.Vector, error) {
	if err := checkND(n, d); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = clampCoord(rng.Float64())
		}
		pts[i] = p
	}
	return pts, nil
}

// Correlated generates points clustered around the main diagonal: a
// shared base level plus small per-dimension jitter, the regime where
// skylines are small.
func Correlated(n, d int, seed int64) ([]geom.Vector, error) {
	if err := checkND(n, d); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		base := rng.Float64()
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = clampCoord(base + rng.NormFloat64()*0.05)
		}
		pts[i] = p
	}
	return pts, nil
}

// AntiCorrelated generates points concentrated near a hyperplane
// Σx_j ≈ const, so that a good value in one dimension tends to come
// with bad values elsewhere — the adversarial regime for skyline and
// regret queries, and the default workload of the paper's Section
// V-C. The construction follows the original skyline paper: draw the
// plate level from a narrow normal distribution around ½, then apply
// sum-preserving random transfers between coordinate pairs.
func AntiCorrelated(n, d int, seed int64) ([]geom.Vector, error) {
	if err := checkND(n, d); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		base := 0.5 + rng.NormFloat64()*0.05
		base = math.Min(math.Max(base, 0.05), 0.95)
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = base
		}
		// Sum-preserving transfers spread mass across dimensions.
		for t := 0; t < 3*d; t++ {
			a, b := rng.Intn(d), rng.Intn(d)
			if a == b {
				continue
			}
			m := math.Min(p[a]-0, 1-p[b])
			if m <= 0 {
				continue
			}
			x := rng.Float64() * m
			p[a] -= x
			p[b] += x
		}
		for j := range p {
			p[j] = clampCoord(p[j])
		}
		pts[i] = p
	}
	return pts, nil
}

// Clustered generates a mixture of c Gaussian clusters with random
// centers in (0.2, 0.8)^d and per-cluster spread, a rough model of
// real multi-modal data.
func Clustered(n, d, c int, seed int64) ([]geom.Vector, error) {
	if err := checkND(n, d); err != nil {
		return nil, err
	}
	if c < 1 {
		return nil, fmt.Errorf("%w: clusters = %d", ErrBadParams, c)
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Vector, c)
	spread := make([]float64, c)
	for i := range centers {
		ctr := make(geom.Vector, d)
		for j := range ctr {
			ctr[j] = 0.2 + 0.6*rng.Float64()
		}
		centers[i] = ctr
		spread[i] = 0.02 + 0.08*rng.Float64()
	}
	pts := make([]geom.Vector, n)
	for i := range pts {
		k := rng.Intn(c)
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = clampCoord(centers[k][j] + rng.NormFloat64()*spread[k])
		}
		pts[i] = p
	}
	return pts, nil
}

// Normalize rescales every dimension of pts so that its maximum is
// exactly 1 and every coordinate stays strictly positive — the
// paper's standing normalization (zero coordinates are floored to a
// tiny positive value, the paper's "add a very small positive value"
// convention). The input is not modified: the result is Ingest's rows,
// as views of one fresh backing array. It returns an error for empty
// input, mixed dimensionality, non-finite or negative coordinates, or
// a dimension whose maximum is not positive; negate or shift
// smaller-is-better attributes before normalizing.
func Normalize(pts []geom.Vector) ([]geom.Vector, error) {
	rows, err := Ingest(pts, true)
	if err != nil {
		return nil, err
	}
	return rows.Views(), nil
}

// grainIngest is the parallel grain of Ingest's two passes, in points:
// below two grains both passes run inline. Each pass reads or writes a
// few bytes per coordinate, so a chunk needs thousands of points to
// pay for its share of the fan-out (DESIGN.md §11).
const grainIngest = 16384

// Ingest copies pts into one pointer-free row-major array and returns
// its rows. With normalize the rows are Normalize's output,
// clampCoord(x / max_j); without it they are the coordinates verbatim,
// which must already be finite and strictly positive. A read pass
// validates every point, and takes the per-dimension maxima, before
// anything is written, and the first invalid point in input order is
// the one reported. Normalized-path errors wrap ErrBadParams, as do
// empty and zero-dimensional input on both paths.
func Ingest[P ~[]float64](pts []P, normalize bool) (geom.Rows, error) {
	return IngestCtx(context.Background(), pts, normalize)
}

// IngestCtx is Ingest with both passes split over GOMAXPROCS
// goroutines under ctx (parallel.For): chunks of the read pass record
// their first invalid point and their maxima in slots of their own,
// folded in chunk order after the join, so the rows, the maxima and
// the reported point are the same at every width.
func IngestCtx[P ~[]float64](ctx context.Context, pts []P, normalize bool) (geom.Rows, error) {
	if len(pts) == 0 {
		return geom.Rows{}, fmt.Errorf("%w: no points", ErrBadParams)
	}
	d := len(pts[0])
	if d == 0 {
		return geom.Rows{}, fmt.Errorf("%w: zero-dimensional points", ErrBadParams)
	}
	// Chunks start at least one grain apart, so start/grain is a slot
	// of the chunk's own. A chunk reports its first invalid point
	// through its slot, not as a body error: an error would stop the
	// claims of chunks before it that have not started, and the point
	// reported must be the first in input order.
	grain := grainIngest
	slots := (len(pts)-1)/grain + 1
	bad := make([]error, slots)
	var maxs []float64
	if normalize {
		maxs = make([]float64, slots*d)
	}
	err := parallel.For(ctx, len(pts), 0, grain, func(start, end int) error {
		s := start / grain
		var m []float64
		if normalize {
			m = maxs[s*d : (s+1)*d]
		}
		bad[s] = checkChunk(pts[start:end], start, d, m)
		return nil
	})
	if err != nil {
		return geom.Rows{}, err
	}
	for _, err := range bad {
		if err != nil {
			return geom.Rows{}, err
		}
	}
	if normalize {
		for s := 1; s < slots; s++ {
			for j, x := range maxs[s*d : (s+1)*d] {
				if x > maxs[j] {
					maxs[j] = x
				}
			}
		}
		maxs = maxs[:d]
		for j, m := range maxs {
			if m <= 0 {
				return geom.Rows{}, fmt.Errorf("%w: dimension %d has maximum %g, need positive", ErrBadParams, j, m)
			}
		}
	}
	flat := make([]float64, len(pts)*d)
	err = parallel.For(ctx, len(pts), 0, grain, func(start, end int) error {
		for i := start; i < end; i++ {
			row := flat[i*d : (i+1)*d]
			if !normalize {
				copy(row, pts[i])
				continue
			}
			for j, x := range pts[i] {
				row[j] = clampCoord(x / maxs[j])
			}
		}
		return nil
	})
	if err != nil {
		return geom.Rows{}, err
	}
	return geom.NewRows(flat, d), nil
}

// checkChunk returns Ingest's error for the first invalid point of
// chunk, whose first point is point base, or nil. With maxs (the
// normalized path) it takes the chunk's per-dimension maxima into maxs
// as it goes.
func checkChunk[P ~[]float64](chunk []P, base, d int, maxs []float64) error {
	for k, p := range chunk {
		i, v := base+k, geom.Vector(p)
		if maxs == nil {
			if len(v) != d {
				return fmt.Errorf("point %d has dimension %d, want %d", i, len(v), d)
			}
			if !v.IsFinite() || !v.AllPositive() {
				return fmt.Errorf("point %d (%v) must be finite and strictly positive (use normalization or shift your data)", i, v)
			}
			continue
		}
		if len(v) != d {
			return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadParams, i, len(v), d)
		}
		if !v.IsFinite() {
			return fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadParams, i)
		}
		for j, x := range v {
			if x < 0 {
				return fmt.Errorf("%w: point %d has negative coordinate %g on dimension %d (negate or shift smaller-is-better attributes first)",
					ErrBadParams, i, x, j)
			}
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	return nil
}
