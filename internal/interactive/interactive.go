// Package interactive implements interactive regret minimization —
// the paper's second future direction (Section VIII), after
// Nanongkai, Lall and Das Sarma, "Interactive Regret Minimization",
// SIGMOD 2012.
//
// Instead of returning one k-set for all possible users, the system
// converses with one specific user: each round it displays a few
// tuples, the user picks the one they like best, and every pick
// teaches the system linear constraints on the user's hidden weight
// vector ("the chosen tuple has at least the utility of each
// displayed alternative"). The feasible region of weight vectors —
// a convex polytope maintained with the same double-description
// engine that powers GeoGreedy — shrinks until the system can
// recommend a tuple whose worst-case regret for *this* user is below
// a target.
//
// The displayed tuples are chosen from the happy points (Lemma 2
// applies round by round: only happy points can ever be a user's
// favourite under a linear utility, up to ties), ranked by how much
// they currently disagree across the feasible weight region.
package interactive

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/happy"
)

// Errors returned by the session.
var (
	ErrNoPoints    = errors.New("interactive: no points")
	ErrBadChoice   = errors.New("interactive: choice out of range")
	ErrNotShowing  = errors.New("interactive: no display round in progress")
	ErrBadDisplay  = errors.New("interactive: display size must be at least 2")
	ErrDegenerate  = errors.New("interactive: utility region collapsed")
	errInternalOpt = errors.New("interactive: internal optimization failure")
)

// Session is one interactive run against a single user. Not safe for
// concurrent use.
type Session struct {
	pts     []geom.Vector
	cand    []int // happy-point candidate indices into pts
	region  *dd.Polytope
	display []int // current display (indices into pts), nil between rounds
	rounds  int
}

// NewSession prepares an interactive session over the dataset. All
// points must be strictly positive and share a dimension; the hidden
// user utility is assumed linear with non-negative weights.
func NewSession(pts []geom.Vector) (*Session, error) {
	if len(pts) == 0 {
		return nil, ErrNoPoints
	}
	d := len(pts[0])
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("interactive: point %d has dimension %d, want %d", i, len(p), d)
		}
		if !p.IsFinite() || !p.AllPositive() {
			return nil, fmt.Errorf("interactive: point %d must be finite and strictly positive", i)
		}
	}
	cand, err := happy.Compute(pts)
	if err != nil {
		return nil, fmt.Errorf("interactive: %w", err)
	}
	// Weight region: the probability simplex {ω ≥ 0, Σω ≤ 1} as a
	// box-capped polytope. Scaling ω does not change rankings, so
	// the simplex normalization loses no generality.
	upper := make([]float64, d)
	for i := range upper {
		upper[i] = 1
	}
	region, err := dd.NewBox(upper)
	if err != nil {
		return nil, fmt.Errorf("interactive: %w", err)
	}
	ones := make(geom.Vector, d)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := region.AddHalfspace(ones, 1); err != nil {
		return nil, fmt.Errorf("interactive: %w", err)
	}
	return &Session{pts: pts, cand: cand, region: region}, nil
}

// Rounds returns the number of completed feedback rounds.
func (s *Session) Rounds() int { return s.rounds }

// spread measures how much candidate i's utility varies over the
// current weight region: max_v v·p − min_v v·p over region vertices.
func (s *Session) spread(p geom.Vector) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range s.region.Vertices() {
		dot := v.Point.Dot(p)
		if dot < lo {
			lo = dot
		}
		if dot > hi {
			hi = dot
		}
	}
	return hi - lo
}

// comparisonUncertainty measures how unsettled the ranking of points
// x and y is under the current region: min over the two orderings of
// the best achievable utility gap. Zero means the region already
// ranks the pair (the user's answer would teach nothing).
func (s *Session) comparisonUncertainty(x, y geom.Vector) float64 {
	maxXY, maxYX := math.Inf(-1), math.Inf(-1)
	for _, v := range s.region.Vertices() {
		g := v.Point.Dot(x) - v.Point.Dot(y)
		if g > maxXY {
			maxXY = g
		}
		if -g > maxYX {
			maxYX = -g
		}
	}
	return math.Min(maxXY, maxYX)
}

// Show starts a feedback round: it returns `size` dataset indices for
// the user to compare. The display is built greedily for information
// gain: it seeds with the candidate whose utility varies most over
// the current weight region, then repeatedly adds the candidate whose
// ranking against every displayed tuple is most uncertain — a
// positive uncertainty guarantees the user's answer cuts the region
// (the chosen-beats-t constraint is violated somewhere in it).
func (s *Session) Show(size int) ([]int, error) {
	if size < 2 {
		return nil, ErrBadDisplay
	}
	if size > len(s.cand) {
		size = len(s.cand)
	}
	// Seed: largest utility spread.
	type scored struct {
		idx    int
		spread float64
	}
	ranked := make([]scored, 0, len(s.cand))
	for _, ci := range s.cand {
		ranked = append(ranked, scored{ci, s.spread(s.pts[ci])})
	}
	sort.Slice(ranked, func(a, b int) bool {
		// Exact ordered comparisons keep the order transitive.
		if ranked[a].spread > ranked[b].spread {
			return true
		}
		if ranked[a].spread < ranked[b].spread {
			return false
		}
		return ranked[a].idx < ranked[b].idx
	})
	display := []int{ranked[0].idx}
	chosen := map[int]bool{ranked[0].idx: true}
	for len(display) < size {
		bestIdx, bestScore := -1, 0.0
		for _, r := range ranked {
			if chosen[r.idx] {
				continue
			}
			score := math.Inf(1)
			for _, di := range display {
				u := s.comparisonUncertainty(s.pts[r.idx], s.pts[di])
				if u < score {
					score = u
				}
			}
			if score > bestScore {
				bestIdx, bestScore = r.idx, score
			}
		}
		if bestIdx < 0 {
			// Every remaining pair is already ranked by the region;
			// pad with the highest-spread leftovers so the caller
			// still gets `size` tuples.
			for _, r := range ranked {
				if !chosen[r.idx] {
					bestIdx = r.idx
					break
				}
			}
			if bestIdx < 0 {
				break
			}
		}
		chosen[bestIdx] = true
		display = append(display, bestIdx)
	}
	s.display = display
	return append([]int(nil), s.display...), nil
}

// Choose records the user's pick: position `choice` within the slice
// returned by the last Show call. Every non-chosen displayed tuple t
// contributes the constraint ω·(chosen − t) ≥ 0.
func (s *Session) Choose(choice int) error {
	if s.display == nil {
		return ErrNotShowing
	}
	if choice < 0 || choice >= len(s.display) {
		return fmt.Errorf("%w: %d of %d", ErrBadChoice, choice, len(s.display))
	}
	chosen := s.pts[s.display[choice]]
	for i, idx := range s.display {
		if i == choice {
			continue
		}
		diff := s.pts[idx].Sub(chosen) // ω·diff ≤ 0
		if _, err := s.region.AddHalfspace(diff, 0); err != nil {
			if errors.Is(err, dd.ErrEmpty) {
				return ErrDegenerate
			}
			return fmt.Errorf("interactive: %w", err)
		}
	}
	s.display = nil
	s.rounds++
	return nil
}

// Estimate returns the centroid of the current weight-region
// vertices, normalized to unit length — the session's best guess of
// the user's utility function.
func (s *Session) Estimate() (geom.Vector, error) {
	verts := s.region.Vertices()
	if len(verts) == 0 {
		return nil, ErrDegenerate
	}
	c := make(geom.Vector, s.region.Dim())
	for _, v := range verts {
		for j := range c {
			c[j] += v.Point[j]
		}
	}
	n, err := c.Normalize()
	if err != nil {
		// All vertices at the origin: no information yet beyond
		// non-negativity; return the uniform direction.
		u := make(geom.Vector, s.region.Dim())
		for j := range u {
			u[j] = 1
		}
		return u.Scale(1 / u.Norm()), nil
	}
	return n, nil
}

// Recommend returns the single tuple that minimizes the worst-case
// regret ratio for this user over the remaining weight region,
// together with that regret bound:
//
//	bound(p) = max_{ω ∈ region} (max_q ω·q − ω·p) / max_q ω·q
//
// evaluated at the region's vertices. This is exact: the level sets
// {ω : ω·p ≥ (1−t)·max_q ω·q} are intersections of halfspaces, so
// the utility ratio is quasi-concave in ω and its minimum (the
// regret's maximum) over the polytope is attained at a vertex.
func (s *Session) Recommend() (int, float64, error) {
	verts := s.region.Vertices()
	if len(verts) == 0 {
		return -1, 0, ErrDegenerate
	}
	// Precompute, per vertex, the dataset-wide top utility.
	tops := make([]float64, 0, len(verts))
	live := make([]*dd.Vertex, 0, len(verts))
	for _, v := range verts {
		if v.Point.Norm() < 1e-12 {
			continue // origin vertex ranks nothing
		}
		top := math.Inf(-1)
		for _, ci := range s.cand {
			if u := v.Point.Dot(s.pts[ci]); u > top {
				top = u
			}
		}
		if top > 0 {
			tops = append(tops, top)
			live = append(live, v)
		}
	}
	if len(live) == 0 {
		return -1, 0, ErrDegenerate
	}
	bestIdx, bestBound := -1, math.Inf(1)
	for _, ci := range s.cand {
		p := s.pts[ci]
		worst := 0.0
		for vi, v := range live {
			r := 1 - v.Point.Dot(p)/tops[vi]
			if r > worst {
				worst = r
			}
		}
		if worst < bestBound {
			bestIdx, bestBound = ci, worst
		}
	}
	if bestIdx < 0 {
		return -1, 0, errInternalOpt
	}
	return bestIdx, bestBound, nil
}
