package kregret

// The default serving path (DESIGN.md §10): GeoGreedy's insertion
// order does not depend on k (the paper's §IV-B), so every default
// answer is a prefix of one run. Each epoch serves default queries
// from a StoredList prefix that grows on demand. A list an epoch makes
// for itself is built over its skyline and kept only when every
// candidate it relies on is a happy point, which makes it the list
// over the happy points; otherwise the epoch builds over its happy
// points. Epochs whose candidates are the same points in the same
// order share the list, and a fold that cannot share it starts the
// successor's over its happy points (DESIGN.md §16).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
)

// errCheckMiss ends a checked build that relies on a skyline point the
// happy-point pass subjugates.
var errCheckMiss = errors.New("kregret: the skyline list relies on a point that is not happy")

// prefixCell holds the default prefix list: GeoGreedy over one
// candidate sequence, materialized up to some length. Readers load
// the immutable list through the atomic pointer; a build replaces it
// with a longer one. flight is the single flight of those builds:
// non-nil while one runs, closed when it ends. mu guards flight.
// first and checked are set before the cell is shared: first is the
// least length its first build reaches, and checked marks a cell over
// an epoch's skyline, whose builds tell the epoch's happy checker every
// candidate the list relies on and stop at the first that is not
// happy. missed records such a stop: the cell builds no more, and each
// epoch serving it moves to a view over its happy points.
type prefixCell struct {
	first   int
	checked bool
	missed  atomic.Bool
	list    atomic.Pointer[core.StoredList]
	mu      sync.Mutex
	flight  chan struct{}
}

// reach is the length a successor's fresh cell builds to first: as far
// as c's list grew, or c's own first while its first build has not
// finished.
func (c *prefixCell) reach() int {
	if l := c.list.Load(); l != nil {
		return max(c.first, l.Len())
	}
	return c.first
}

// prefixView is one epoch's handle on a cell: cand maps the list's
// candidate positions to the epoch's point indices. Epochs that share
// a cell each map it through their own skyline (or, for a cell over
// happy points, their own happy indices). A checked cell's cand is
// always the epoch's skyline.
type prefixView struct {
	cell *prefixCell
	cand []int
}

// listView returns the epoch's view, creating it on first use with a
// fresh checked cell over the skyline, which it fills under ctx.
func (s *dsState) listView(ctx context.Context) (*prefixView, error) {
	if v := s.prefix.Load(); v != nil {
		return v, nil
	}
	sky, err := s.skylineCtx(ctx)
	if err != nil {
		return nil, err
	}
	s.prefix.CompareAndSwap(nil, &prefixView{cell: &prefixCell{checked: true}, cand: sky})
	return s.prefix.Load(), nil
}

// happyView moves the epoch off the view old, whose checked cell
// missed, to a view over its happy points, filled under ctx, with a
// fresh cell that first builds as far as old's had reached.
func (s *dsState) happyView(ctx context.Context, old *prefixView) (*prefixView, error) {
	h, err := s.happyPointsCtx(ctx)
	if err != nil {
		return nil, err
	}
	s.prefix.CompareAndSwap(old, &prefixView{cell: &prefixCell{first: old.cell.reach()}, cand: h})
	return s.prefix.Load(), nil
}

// shareList hands st's prefix cell to its successor ns when the
// mutation between them kept the view's candidates: ns's skyline (for a
// view over the happy points, ns's happy points) is st's remapped past
// the deleted index del (-1 for an insert), so the candidates are the
// same points in the same order and any list built over them is the
// same. A kept skyline keeps the happy points among it too, so a
// checked list stays checked. Otherwise ns gets a fresh cell over its
// happy points whose first build reaches the length st's list had
// grown to, so ns's readers rebuild the list once rather than at every
// doubling. The happy points are filled here, on the mutation's path,
// when the fold did not keep them by delta: the folds after this one
// then keep them by delta, and the lists that replace this one build
// over them without a check, which a fresh checked list's reader would
// pay for (DESIGN.md §16). ns's skyline cache must be filled. An epoch
// no default query reached has no view, and its successor makes its
// own.
func shareList(st, ns *dsState, del int) {
	v := st.prefix.Load()
	if v == nil {
		return
	}
	switch {
	case slices.Equal(v.cand, st.sky) && kept(st.sky, ns.sky, del):
		ns.prefix.Store(&prefixView{cell: v.cell, cand: ns.sky})
		return
	case st.happyDone.Load() && ns.happyDone.Load() && slices.Equal(v.cand, st.happy) && kept(st.happy, ns.happy, del):
		ns.prefix.Store(&prefixView{cell: v.cell, cand: ns.happy})
		return
	}
	h, err := ns.happyPoints()
	if err != nil {
		return // ns makes its own view on first use
	}
	ns.prefix.Store(&prefixView{cell: &prefixCell{first: v.cell.reach()}, cand: h})
}

// kept reports whether the indices next are prev's remapped past the
// deleted index del (-1 for an insert).
func kept(prev, next []int, del int) bool {
	if len(prev) != len(next) {
		return false
	}
	for i, h := range prev {
		if h == del {
			return false
		}
		if del >= 0 && h > del {
			h--
		}
		if next[i] != h {
			return false
		}
	}
	return true
}

// listAnswer is the answer to k of list l over the candidates cand,
// which must cover k. The prefix is copied once, into Answer.Indices,
// so no answer aliases the list.
func listAnswer(l *core.StoredList, cand []int, k int) (*Answer, error) {
	sel, err := l.Query(k)
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	mrr, err := l.MRRFor(k)
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	for i, c := range sel {
		sel[i] = cand[c]
	}
	return &Answer{Indices: sel, MRR: mrr, Algorithm: AlgoGeoGreedy, Candidates: CandidatesHappy}, nil
}

// query answers a default query the cell's list does not cover. The
// list grows to cover k, which is the degradation chain's first
// attempt: when that build fails numerically nothing is stored, and
// the chain goes on from the perturbed re-run over the happy points
// exactly as solveWithFallback does after a failed solve. A checked
// build inserts only happy points into its hull before it fails, the
// same insertions the build over the happy points makes. A build past
// k can fail in an iteration GeoGreedy at k never runs, so before it
// counts as failed the build is repeated to exactly k, the run
// GeoGreedy at k would make. st is the epoch the view belongs to;
// workers is the solver width.
func (v *prefixView) query(ctx context.Context, st *dsState, k, workers int, o *options) (*Answer, degradation, error) {
	if err := ctx.Err(); err != nil {
		return nil, degradation{}, fmt.Errorf("kregret: query canceled: %w", err)
	}
	v, l, err := v.grow(ctx, st, k, func(candPts []geom.Vector, n int, rely func(int) error) (*core.StoredList, error) {
		l, err := buildPrefix(ctx, candPts, n, k, workers, rely)
		if err != nil && n > k && retriable(err) {
			l, err = buildPrefix(ctx, candPts, k, k, workers, rely)
		}
		return l, err
	})
	if err == nil {
		var ans *Answer
		if ans, err = listAnswer(l, v.cand, k); err == nil {
			return ans, degradation{algorithm: AlgoGeoGreedy}, nil
		}
	}
	if !o.fallback || !retriable(err) {
		return nil, degradation{}, err
	}
	cand := v.cand
	if v.cell.checked {
		var herr error
		if cand, herr = st.happyPointsCtx(ctx); herr != nil {
			return nil, degradation{}, herr
		}
	}
	candPts, serr := core.SelectRows(st.rows, cand)
	if serr != nil {
		return nil, degradation{}, fmt.Errorf("kregret: %w", serr)
	}
	res, deg, err := fallBack(ctx, o, candPts, k, workers, err)
	if err != nil {
		return nil, deg, err
	}
	return newAnswer(res, deg, cand, o.candidates), deg, nil
}

// listBuild makes the first n entries of a list over candPts, telling
// rely (when not nil) each candidate the list relies on.
type listBuild func(candPts []geom.Vector, n int, rely func(int) error) (*core.StoredList, error)

// grow returns the view whose list covers k, and that list: v's cell
// grown to k or, once v's checked cell has missed, the epoch's view
// over its happy points grown to k (an unchecked cell never misses).
// On a failed build grow returns the view whose build failed.
func (v *prefixView) grow(ctx context.Context, st *dsState, k int, build listBuild) (*prefixView, *core.StoredList, error) {
	for {
		l, err := v.cell.grow(ctx, k, func(n int) (*core.StoredList, error) {
			return v.run(ctx, st, n, build)
		})
		if !errors.Is(err, errCheckMiss) {
			return v, l, err
		}
		hv, err := st.happyView(ctx, v)
		if err != nil {
			return v, nil, err
		}
		v = hv
	}
}

// run runs build over v's candidates: on a checked cell with the
// epoch's happy checker as rely, marking the cell missed when the list
// relies on a point that is not happy.
func (v *prefixView) run(ctx context.Context, st *dsState, n int, build listBuild) (*core.StoredList, error) {
	candPts, err := core.SelectRows(st.rows, v.cand)
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	if !v.cell.checked {
		return build(candPts, n, nil)
	}
	if v.cell.missed.Load() {
		return nil, errCheckMiss
	}
	chk, err := st.happyChecker(ctx)
	if err != nil {
		return nil, err
	}
	l, err := build(candPts, n, func(c int) error {
		if !chk.Happy(c) {
			return errCheckMiss
		}
		return nil
	})
	if errors.Is(err, errCheckMiss) {
		v.cell.missed.Store(true)
	}
	return l, err
}

// buildPrefix materializes the first n entries of the default list
// for a query of size k inside the same panic boundary as runSolver,
// so a failure reads as the failed GeoGreedy attempt it replaces.
func buildPrefix(ctx context.Context, candPts []geom.Vector, n, k, workers int, rely func(int) error) (l *core.StoredList, err error) {
	defer func() {
		if r := recover(); r != nil {
			l, err = nil, solverPanic(r, AlgoGeoGreedy, k, CandidatesHappy, len(candPts))
		}
	}()
	if l, err = core.BuildStoredListUpToParCtx(ctx, candPts, n, workers, rely); err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return l, nil
}

// grow returns the cell's list once it covers k, building a longer
// one when it does not: to max(k, 2·length), or on the first build to
// max(k, first), which build clamps to the candidate count. Doubling
// keeps no dual-hull state alive between builds and costs at most
// about two solves at the largest k asked. One build runs at a time;
// a caller that finds one running waits for it (or for ctx) and
// checks again, so it builds only if that build failed or fell short.
// A failed build stores nothing and returns its error to the caller
// that ran it.
func (c *prefixCell) grow(ctx context.Context, k int, build func(n int) (*core.StoredList, error)) (*core.StoredList, error) {
	for {
		l, wait, lead := c.claim(k)
		if lead != nil {
			return c.lead(l, k, build, lead)
		}
		if wait == nil {
			return l, nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, fmt.Errorf("kregret: query canceled: %w", ctx.Err())
		}
	}
}

// claim returns the cell's list, and when it does not cover k either
// the running build's flight to wait for or, when none runs, a new
// flight for the caller to lead.
func (c *prefixCell) claim(k int) (l *core.StoredList, wait, lead chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l = c.list.Load()
	switch {
	case l.Covers(k):
		return l, nil, nil
	case c.flight != nil:
		return l, c.flight, nil
	}
	c.flight = make(chan struct{})
	return l, nil, c.flight
}

// lead runs the build grow started and ends its flight, whatever the
// build does.
func (c *prefixCell) lead(old *core.StoredList, k int, build func(n int) (*core.StoredList, error), done chan struct{}) (*core.StoredList, error) {
	defer func() {
		c.mu.Lock()
		c.flight = nil
		c.mu.Unlock()
		close(done)
	}()
	n := max(k, c.first)
	if old != nil {
		n = max(k, 2*old.Len())
	}
	l, err := build(n)
	if err != nil {
		return nil, err
	}
	c.list.Store(l)
	return l, nil
}
