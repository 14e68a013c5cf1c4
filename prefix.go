package kregret

// The default serving path (DESIGN.md §10): GeoGreedy's insertion
// order does not depend on k (the paper's §IV-B), so every default
// answer is a prefix of one run. Each epoch serves default queries
// from a StoredList prefix that grows on demand, and epochs whose
// candidates are the same points in the same order share it
// (DESIGN.md §16).

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
)

// prefixCell holds the default prefix list: GeoGreedy over one
// candidate sequence, materialized up to some length. Readers load
// the immutable list through the atomic pointer; a build replaces it
// with a longer one. flight is the single flight of those builds:
// non-nil while one runs, closed when it ends. mu guards flight.
type prefixCell struct {
	list   atomic.Pointer[core.StoredList]
	mu     sync.Mutex
	flight chan struct{}
}

// prefixView is one epoch's handle on a cell: cand maps the list's
// candidate positions to the epoch's point indices. Epochs that share
// a cell each map it through their own happy indices.
type prefixView struct {
	cell *prefixCell
	cand []int
}

// listView returns the epoch's view, creating it with a fresh cell
// over the happy points on first use.
func (s *dsState) listView() (*prefixView, error) {
	if v := s.prefix.Load(); v != nil {
		return v, nil
	}
	h, err := s.happyPoints()
	if err != nil {
		return nil, err
	}
	s.prefix.CompareAndSwap(nil, &prefixView{cell: new(prefixCell), cand: h})
	return s.prefix.Load(), nil
}

// shareList hands st's prefix cell to its successor ns when the
// mutation between them kept D_happy: ns's happy points are st's
// remapped past the deleted index del (-1 for an insert), so the
// candidates are the same points in the same order and any list built
// over them is the same. Both epochs' happy caches must be filled.
func shareList(st, ns *dsState, del int) {
	if len(st.happy) != len(ns.happy) {
		return
	}
	for i, h := range st.happy {
		if h == del {
			return
		}
		if del >= 0 && h > del {
			h--
		}
		if ns.happy[i] != h {
			return
		}
	}
	v, err := st.listView()
	// A view installed from a snapshot maps through the snapshot's
	// candidates; share it only when they are this epoch's happy points.
	if err != nil || !slices.Equal(v.cand, st.happy) {
		return
	}
	ns.prefix.Store(&prefixView{cell: v.cell, cand: ns.happy})
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
// the chain goes on from the perturbed re-run exactly as
// solveWithFallback does after a failed solve. A build past k can
// fail in an iteration GeoGreedy at k never runs, so before it counts
// as failed the build is repeated to exactly k, the run GeoGreedy at
// k would make. st is the epoch the view belongs to; workers is the
// solver width.
func (v *prefixView) query(ctx context.Context, st *dsState, k, workers int, o *options) (*Answer, degradation, error) {
	if err := ctx.Err(); err != nil {
		return nil, degradation{}, fmt.Errorf("kregret: query canceled: %w", err)
	}
	candPts, err := core.Select(st.pts, v.cand)
	if err != nil {
		return nil, degradation{}, fmt.Errorf("kregret: %w", err)
	}
	l, err := v.cell.grow(ctx, k, func(n int) (*core.StoredList, error) {
		l, err := buildPrefix(ctx, candPts, n, k, workers)
		if err != nil && n > k && retriable(err) {
			l, err = buildPrefix(ctx, candPts, k, k, workers)
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
	res, deg, err := fallBack(ctx, o, candPts, k, workers, err)
	if err != nil {
		return nil, deg, err
	}
	return newAnswer(res, deg, v.cand, o.candidates), deg, nil
}

// buildPrefix materializes the first n entries of the default list
// for a query of size k inside the same panic boundary as runSolver,
// so a failure reads as the failed GeoGreedy attempt it replaces.
func buildPrefix(ctx context.Context, candPts []geom.Vector, n, k, workers int) (l *core.StoredList, err error) {
	defer func() {
		if r := recover(); r != nil {
			l, err = nil, solverPanic(r, AlgoGeoGreedy, k, CandidatesHappy, len(candPts))
		}
	}()
	if l, err = core.BuildStoredListUpToParCtx(ctx, candPts, n, workers); err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return l, nil
}

// grow returns the cell's list once it covers k, building a longer
// one when it does not: to max(k, 2·length), which build clamps to
// the candidate count. Doubling keeps no dual-hull state alive
// between builds and costs at most about two solves at the largest k
// asked. One build runs at a time; a caller that finds one running
// waits for it (or for ctx) and checks again, so it builds only if
// that build failed or fell short. A failed build stores nothing and
// returns its error to the caller that ran it.
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
	n := k
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
