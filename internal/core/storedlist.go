package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// StoredList is the paper's materialization of GeoGreedy
// (Section IV-B): preprocessing runs GeoGreedy over the candidate set
// with k = |candidates| and stores the insertion order; a query for
// any k then returns the first min(k, len) entries in O(k), with the
// prefix regret already known.
//
// The zero value is not usable; construct with BuildStoredList.
type StoredList struct {
	order []int
	// mrrAt[i] is the maximum regret ratio of the prefix of length
	// i+1 (measured against the candidate set). Its first lazy
	// entries, the prefixes shorter than the boundary seed batch, are
	// only evaluated when first read (see price).
	mrrAt []float64
	dim   int
	nCand int
	// complete records whether the whole greedy order was
	// materialized (BuildStoredList) or only a prefix
	// (BuildStoredListUpTo); queries beyond an incomplete list are
	// rejected rather than silently under-answered.
	complete bool

	// lazy counts the leading prefixes whose regret the build left
	// unpriced; pts holds the candidates they are priced against until
	// priced is set. priceMu serializes the one pricing pass.
	lazy    int
	pts     []geom.Vector
	priceMu sync.Mutex
	priced  atomic.Bool
}

// ErrBeyondList is returned by Query when k exceeds the materialized
// prefix of a partially built list.
var ErrBeyondList = errors.New("core: k beyond the materialized stored-list prefix")

// BuildStoredList runs the preprocessing phase over the candidates
// (normally the happy points). This is the expensive step — the
// paper's "total time" of StoredList is the largest of the three
// algorithms because of it — while Query is then near-free.
func BuildStoredList(pts []geom.Vector) (*StoredList, error) {
	return BuildStoredListParCtx(context.Background(), pts, 1)
}

// BuildStoredListParCtx is BuildStoredList with cooperative
// cancellation and intra-query parallelism (the preprocessing is one
// full GeoGreedy run; see GeoGreedyParCtx for the check granularity
// and BuildStoredListUpToParCtx for the worker contract).
func BuildStoredListParCtx(ctx context.Context, pts []geom.Vector, workers int) (*StoredList, error) {
	s, err := BuildStoredListUpToParCtx(ctx, pts, len(pts), workers, nil)
	if err != nil {
		return nil, err
	}
	s.complete = true
	return s, nil
}

// BuildStoredListUpTo materializes only the first maxLen entries of
// the greedy order — enough to serve every query with k ≤ maxLen at
// a fraction of the full preprocessing cost. The returned list
// rejects larger ks with ErrBeyondList (unless the greedy exhausted
// the hull before maxLen, in which case the list is complete anyway).
func BuildStoredListUpTo(pts []geom.Vector, maxLen int) (*StoredList, error) {
	return BuildStoredListUpToParCtx(context.Background(), pts, maxLen, 1, nil)
}

// BuildStoredListUpToParCtx is BuildStoredListUpTo with cooperative
// cancellation. The underlying GeoGreedy run is sequential; workers
// (0 = GOMAXPROCS, 1 = the exact sequential path) only sizes the
// exact evaluation of the whole selection when maxLen truncates the
// boundary seeds. The build costs what GeoGreedyParCtx at k = maxLen
// costs: the regrets of the prefixes shorter than the seed batch,
// which the hull cannot price, are evaluated exactly only when a
// query, MinK or Save first reads them. The materialized order and
// per-prefix regrets are byte-identical for every worker count.
//
// rely, when non-nil, is told every candidate the list's order and
// regrets depend on, as the build meets it: each boundary point, each
// pick, each candidate whose support prices a non-zero prefix regret,
// and for the prefixes shorter than the seed batch, which the build
// then prices at once, each point the exact evaluator finds pricing a
// non-zero regret. An error from rely ends the build with it. A caller
// whose candidates are a superset of another set, in the same order,
// gets the list that set gives whenever rely accepts only its members:
// the two runs have the same seeds and hull box, and each step's
// arg-max and its value are the same over both (ALGORITHMS.md §3).
func BuildStoredListUpToParCtx(ctx context.Context, pts []geom.Vector, maxLen, workers int, rely func(int) error) (*StoredList, error) {
	d, err := validatePoints(pts)
	if err != nil {
		return nil, err
	}
	if maxLen < 1 {
		return nil, ErrBadK
	}
	if maxLen > len(pts) {
		maxLen = len(pts)
	}
	s := &StoredList{dim: d, nCand: len(pts)}
	res, err := greedyHullTrace(ctx, pts, maxLen, workers, 1.0, nil, func(idx int, mrr float64) {
		if mrr < 0 { // unpriced: always a leading prefix
			s.lazy++
		}
		s.order = append(s.order, idx)
		s.mrrAt = append(s.mrrAt, mrr)
	}, rely)
	if err != nil {
		return nil, err
	}
	// An early stop means the prefix already drives the regret to
	// zero: every possible k is served, so the list is complete even
	// when maxLen < |candidates|.
	s.complete = res.ExhaustedAt >= 0 || maxLen >= len(pts)
	if s.lazy > 0 {
		s.pts = pts
		if rely != nil {
			if err := s.priceParCtx(ctx, workers, rely); err != nil {
				return nil, err
			}
			s.pts = nil
			s.priced.Store(true)
		}
	}
	return s, nil
}

// price evaluates the lazy prefix regrets exactly (Lemma 1) on one
// full-scan EvalIndex over the candidates: the evaluator, and so every
// bit, that GeoGreedy uses for a selection that truncates the seeds.
// It runs once; concurrent readers wait for it, and a failure leaves
// the prefixes unpriced for the next reader. The entries it writes
// are read only after it returns, so readers of the other entries
// never wait.
func (s *StoredList) price() (err error) {
	if s.lazy == 0 || s.priced.Load() {
		return nil
	}
	s.priceMu.Lock()
	defer s.priceMu.Unlock()
	if s.priced.Load() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: pricing the seed prefixes panicked: %v", ErrDegenerate, r)
		}
	}()
	if err := s.priceParCtx(context.Background(), 1, nil); err != nil {
		return err
	}
	s.pts = nil
	s.priced.Store(true)
	return nil
}

// priceParCtx writes the exact regret of every lazy prefix, telling
// rely, when non-nil, each point whose support prices a non-zero one.
// The regrets are the same at every width.
func (s *StoredList) priceParCtx(ctx context.Context, workers int, rely func(int) error) error {
	x, err := NewEvalIndex(s.pts)
	if err != nil {
		return err
	}
	for j := 0; j < s.lazy; j++ {
		m, arg, err := x.mrrArgMax(ctx, s.order[:j+1], workers)
		if err != nil {
			return err
		}
		if rely != nil && arg >= 0 {
			if err := rely(arg); err != nil {
				return err
			}
		}
		s.mrrAt[j] = m
	}
	return nil
}

// Covers reports whether Query(k) answers without ErrBeyondList: k is
// within the materialized prefix, or the list is complete. A nil or
// empty list covers nothing.
func (s *StoredList) Covers(k int) bool {
	return s != nil && len(s.order) > 0 && (k <= len(s.order) || s.complete)
}

// Candidates returns the size of the candidate set the list was built
// over; every index Query returns is below it.
func (s *StoredList) Candidates() int { return s.nCand }

// Len returns the materialized list length. It can be shorter than
// the candidate count: GeoGreedy stops once the regret reaches zero,
// and every further point would be redundant (the prefix already
// contains all hull extreme points).
func (s *StoredList) Len() int { return len(s.order) }

// Query answers a k-regret query from the materialized list: the
// first min(k, Len) indices. Equal to GeoGreedy's answer for the
// same candidates and k by construction. For partially built lists
// (BuildStoredListUpTo) a k beyond the materialized prefix returns
// ErrBeyondList.
func (s *StoredList) Query(k int) ([]int, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	if k > len(s.order) {
		if !s.complete {
			return nil, fmt.Errorf("%w: k=%d, materialized %d", ErrBeyondList, k, len(s.order))
		}
		k = len(s.order)
	}
	out := make([]int, k)
	copy(out, s.order[:k])
	return out, nil
}

// MRRFor returns the maximum regret ratio of the answer Query(k)
// without recomputation. For k beyond the list length the regret is
// the final one (zero when the list exhausted the hull).
func (s *StoredList) MRRFor(k int) (float64, error) {
	if k < 1 {
		return 0, ErrBadK
	}
	if len(s.mrrAt) == 0 {
		return 0, fmt.Errorf("core: empty stored list")
	}
	if k > len(s.mrrAt) {
		if !s.complete {
			return 0, fmt.Errorf("%w: k=%d, materialized %d", ErrBeyondList, k, len(s.mrrAt))
		}
		k = len(s.mrrAt)
	}
	if k <= s.lazy {
		if err := s.price(); err != nil {
			return 0, err
		}
	}
	return s.mrrAt[k-1], nil
}

// MinK returns the smallest k whose stored-list answer has maximum
// regret ratio at most eps — the "min-size" dual of the k-regret
// query (given a regret budget, how many tuples must be shown?).
// The per-prefix regrets are non-increasing, so a binary search over
// the materialized list answers in O(log n). If even the full list
// exceeds eps (possible only for partially materialized lists, or
// eps < 0), or eps is NaN, MinK returns 0 and false; so it does when
// the lazy prefix regrets fail to evaluate.
func (s *StoredList) MinK(eps float64) (int, bool) {
	if len(s.mrrAt) == 0 || math.IsNaN(eps) || s.price() != nil {
		return 0, false
	}
	lo, hi := 0, len(s.mrrAt)-1
	if s.mrrAt[hi] > eps {
		return 0, false
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if s.mrrAt[mid] <= eps {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo + 1, true
}
