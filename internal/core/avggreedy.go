package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// AverageGreedy selects at most k points minimizing the *average*
// regret ratio over linear utilities — the paper's first future
// direction (Section VIII). The average is estimated over `samples`
// utility functions drawn uniformly from the non-negative unit
// sphere, and the selection is built greedily: each step adds the
// point with the largest total utility gain across the samples.
// Because the objective Σ_ω max_{p∈S} ω·p is monotone submodular,
// the greedy enjoys the classic (1−1/e) approximation guarantee for
// the sampled objective.
//
// In the returned Result, MRR holds the *sampled average* regret
// ratio of the selection (not the maximum); evaluate with
// EvalIndex.MRRGeometric for the worst case.
func AverageGreedy(pts []geom.Vector, k, samples int, seed int64) (*Result, error) {
	d, err := validatePoints(pts)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: samples must be positive, got %d", samples)
	}
	if k > len(pts) {
		k = len(pts)
	}

	rng := rand.New(rand.NewSource(seed))
	ws := make([]geom.Vector, samples)
	// utility[s][i] = ws[s]·pts[i], precomputed; best[s] and the
	// dataset-wide top value per sample drive the regret accounting.
	utility := make([][]float64, samples)
	top := make([]float64, samples)
	for s := range ws {
		ws[s] = randomUtility(rng, d)
		row := make([]float64, len(pts))
		t := math.Inf(-1)
		for i, p := range pts {
			row[i] = ws[s].Dot(p)
			if row[i] > t {
				t = row[i]
			}
		}
		utility[s] = row
		top[s] = t
	}

	taken := make([]bool, len(pts))
	best := make([]float64, samples) // current max utility of S per sample
	selected := make([]int, 0, k)
	for len(selected) < k {
		bestGain, bestIdx := 0.0, -1
		for i := range pts {
			if taken[i] {
				continue
			}
			var gain float64
			for s := range best {
				if u := utility[s][i]; u > best[s] {
					gain += u - best[s]
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break // no remaining point improves any sample
		}
		taken[bestIdx] = true
		selected = append(selected, bestIdx)
		for s := range best {
			if u := utility[s][bestIdx]; u > best[s] {
				best[s] = u
			}
		}
	}

	// Report the sampled average regret of the final selection.
	var avg float64
	for s := range best {
		if top[s] > 0 {
			r := 1 - best[s]/top[s]
			if r > 0 {
				avg += r
			}
		}
	}
	avg /= float64(samples)
	exhausted := -1
	if len(selected) < k {
		exhausted = len(selected)
	}
	return &Result{Indices: selected, MRR: avg, ExhaustedAt: exhausted}, nil
}
