package kregret

// Extensions beyond the paper: the optimal 2-D solver, the
// average-regret greedy (the paper's first future direction) and
// interactive utility learning (the second, after Nanongkai et al.,
// SIGMOD 2012).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/interactive"
)

// QueryExact2D answers a k-regret query *optimally* for
// two-dimensional datasets (the paper's algorithms are greedy
// heuristics in every dimension). It is how this repository measures
// the greedy's optimality gap on planar data. Returns an error when
// Dim() != 2.
func (d *Dataset) QueryExact2D(k int) (*Answer, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	res, err := core.Exact2D(d.snap().rows.Views(), k)
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return &Answer{
		Indices:    res.Indices,
		MRR:        res.MRR,
		Algorithm:  AlgoGeoGreedy, // reported for interface uniformity
		Candidates: CandidatesHappy,
	}, nil
}

// QueryAverage selects at most k tuples minimizing the *average*
// regret ratio over utility functions sampled uniformly from the
// non-negative unit sphere (Monte-Carlo, deterministic for a given
// seed). The returned Answer's MRR field holds the exact *maximum*
// regret ratio of the selection so answers remain comparable; the
// second return value is the sampled average regret.
func (d *Dataset) QueryAverage(k, samples int, seed int64) (*Answer, float64, error) {
	if k < 1 {
		return nil, 0, ErrBadK
	}
	st := d.snap()
	res, err := core.AverageGreedy(st.rows.Views(), k, samples, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("kregret: %w", err)
	}
	x, err := st.evalIndex()
	if err != nil {
		return nil, 0, err
	}
	mrr, err := x.MRRGeometric(res.Indices)
	if err != nil {
		return nil, 0, fmt.Errorf("kregret: %w", err)
	}
	return &Answer{
		Indices:    res.Indices,
		MRR:        mrr,
		Algorithm:  AlgoGeoGreedy,
		Candidates: CandidatesAll,
	}, res.MRR, nil
}

// InteractiveSession starts an interactive regret-minimization
// session over the dataset: repeatedly Show a handful of tuples, let
// the user Choose their favourite, and Recommend converges to a
// near-personal-optimal tuple. See internal/interactive for the
// protocol details.
type InteractiveSession struct {
	s *interactive.Session
}

// NewInteractiveSession prepares a session over this dataset.
func (d *Dataset) NewInteractiveSession() (*InteractiveSession, error) {
	s, err := interactive.NewSession(d.snap().rows.Views())
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return &InteractiveSession{s: s}, nil
}

// Show returns `size` dataset indices for the user to compare.
func (s *InteractiveSession) Show(size int) ([]int, error) {
	out, err := s.s.Show(size)
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return out, nil
}

// Choose records the user's pick (a position within the last Show).
func (s *InteractiveSession) Choose(position int) error {
	if err := s.s.Choose(position); err != nil {
		return fmt.Errorf("kregret: %w", err)
	}
	return nil
}

// Recommend returns the tuple minimizing this user's worst-case
// regret given the feedback so far, with the regret bound.
func (s *InteractiveSession) Recommend() (index int, regretBound float64, err error) {
	idx, bound, err := s.s.Recommend()
	if err != nil {
		return -1, 0, fmt.Errorf("kregret: %w", err)
	}
	return idx, bound, nil
}

// EstimatedUtility returns the current best guess of the user's
// weight vector (unit length).
func (s *InteractiveSession) EstimatedUtility() (Point, error) {
	w, err := s.s.Estimate()
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return Point(geom.Vector(w)), nil
}

// Rounds reports how many feedback rounds have completed.
func (s *InteractiveSession) Rounds() int { return s.s.Rounds() }
