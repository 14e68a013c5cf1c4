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
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
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
// convention). The input is not modified: the result is Ingest's
// layout, capacity-capped row views of one fresh backing array. It
// returns an error for empty input, mixed dimensionality, non-finite
// or negative coordinates, or a dimension whose maximum is not
// positive; negate or shift smaller-is-better attributes before
// normalizing.
func Normalize(pts []geom.Vector) ([]geom.Vector, error) { return Ingest(pts, true) }

// Ingest copies pts into one backing array and returns its
// capacity-capped row views (Rows). With normalize the rows are
// Normalize's output, clampCoord(x / max_j); without it they are the
// coordinates verbatim, which must already be finite and strictly
// positive. A read pass validates every point, and takes the
// per-dimension maxima, before anything is written, and the first
// invalid point in input order is the one reported. Normalized-path
// errors wrap ErrBadParams, as do empty and zero-dimensional input on
// both paths.
func Ingest[P ~[]float64](pts []P, normalize bool) ([]geom.Vector, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("%w: no points", ErrBadParams)
	}
	d := len(pts[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional points", ErrBadParams)
	}
	var maxs []float64
	if normalize {
		maxs = make([]float64, d)
	}
	for i, p := range pts {
		v := geom.Vector(p)
		if !normalize {
			if len(v) != d {
				return nil, fmt.Errorf("point %d has dimension %d, want %d", i, len(v), d)
			}
			if !v.IsFinite() || !v.AllPositive() {
				return nil, fmt.Errorf("point %d (%v) must be finite and strictly positive (use normalization or shift your data)", i, v)
			}
			continue
		}
		if len(v) != d {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadParams, i, len(v), d)
		}
		if !v.IsFinite() {
			return nil, fmt.Errorf("%w: point %d has non-finite coordinates", ErrBadParams, i)
		}
		for j, x := range v {
			if x < 0 {
				return nil, fmt.Errorf("%w: point %d has negative coordinate %g on dimension %d (negate or shift smaller-is-better attributes first)",
					ErrBadParams, i, x, j)
			}
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	for j, m := range maxs {
		if m <= 0 {
			return nil, fmt.Errorf("%w: dimension %d has maximum %g, need positive", ErrBadParams, j, m)
		}
	}
	flat := make([]float64, len(pts)*d)
	for i, p := range pts {
		row := flat[i*d : (i+1)*d]
		if !normalize {
			copy(row, p)
			continue
		}
		for j, x := range p {
			row[j] = clampCoord(x / maxs[j])
		}
	}
	return Rows(flat, d), nil
}

// Rows returns the capacity-capped row views of flat, a row-major
// n×d array with len(flat) = n·d and d ≥ 1. The views share flat.
func Rows(flat []float64, d int) []geom.Vector {
	rows := make([]geom.Vector, len(flat)/d)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return rows
}
