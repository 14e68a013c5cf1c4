// Package serve is the admission-control layer of the serving engine:
// a gate of run slots with a bounded wait queue, deadline-aware load
// shedding, and a graceful drain on shutdown. It is deliberately
// generic — jobs are plain closures, run on their caller's goroutine —
// so the geometry layer above it (kregret.Engine) decides what a query
// is while this package decides only whether and when it may run.
//
// Admission is strict and happens before any expensive work:
//
//   - a request whose context is already dead is shed (ErrShed);
//   - a request arriving after Shutdown is rejected (ErrShuttingDown);
//   - a request that finds every run slot taken and the wait queue
//     full is shed (ErrOverloaded).
//
// A request that finds a free slot runs at once. Otherwise it waits,
// and waiters take freed slots in arrival order; a waiter re-checks
// its context when it gets a slot and sheds deadline-doomed work
// before it touches the job, so queue delay never converts into
// wasted solver time. Every outcome is counted in Stats.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Typed admission errors. Pool methods never return these bare — they
// are wrapped in an *OverloadError carrying queue-depth context — so
// match with errors.Is.
var (
	// ErrOverloaded reports that the wait queue was full at admission.
	ErrOverloaded = errors.New("serve: overloaded, wait queue full")
	// ErrShed reports that the request was dropped because its
	// deadline had already expired (at admission or at dequeue),
	// before any solver work was done.
	ErrShed = errors.New("serve: request shed, deadline unreachable")
	// ErrShuttingDown reports that the pool no longer accepts work.
	ErrShuttingDown = errors.New("serve: shutting down")
)

// OverloadError is the concrete error returned for shed or rejected
// admissions. It wraps one of the sentinels above and records the
// pool pressure at the moment of the decision.
type OverloadError struct {
	// Sentinel is ErrOverloaded, ErrShed or ErrShuttingDown.
	Sentinel error
	// Queued and Capacity are the wait-queue depth and limit at the
	// time of the decision; Workers is the number of run slots.
	Queued, Capacity, Workers int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (queue %d/%d, %d workers)", e.Sentinel, e.Queued, e.Capacity, e.Workers)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *OverloadError) Unwrap() error { return e.Sentinel }

// Config sizes a Pool. The zero value is usable: Workers defaults to
// GOMAXPROCS and QueueDepth to twice the worker count.
type Config struct {
	// Workers is the number of run slots: how many jobs may run at
	// once, the hard bound on concurrent solver work.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a slot.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	return c
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	// Admitted counts requests that took a run slot or entered the
	// wait queue.
	Admitted uint64
	// Completed counts jobs that ran and returned or panicked (job
	// outcomes belong to the caller).
	Completed uint64
	// ShedOverload counts requests dropped at admission because every
	// slot was taken and the queue was full.
	ShedOverload uint64
	// ShedDeadline counts requests dropped because their deadline had
	// expired — at admission or at dequeue, before the job ran.
	ShedDeadline uint64
	// ShedAtDequeue is the subset of ShedDeadline dropped when a
	// waiter got its slot, i.e. after the request was Admitted. It
	// makes the conservation identity exact at any drain point:
	//
	//	Admitted = Completed + Canceled + ShedAtDequeue + Queued
	ShedAtDequeue uint64
	// Canceled counts admitted requests abandoned by their caller
	// (context done) while still waiting in the queue.
	Canceled uint64
	// RejectedShutdown counts requests refused after Shutdown.
	RejectedShutdown uint64
	// Queued and InFlight are current gauges; Workers and QueueDepth
	// echo the configuration.
	Queued, InFlight int
	Workers          int
	QueueDepth       int
	// DrainDuration is how long the shutdown drain took — from the
	// first Shutdown call to the last admitted call returning. Zero
	// until the drain has completed.
	DrainDuration time.Duration
}

// Pool is a gate of run slots: at most Workers calls run at once, each
// on its caller's goroutine, and at most QueueDepth more wait for a
// slot. Create with NewPool; safe for concurrent use.
type Pool struct {
	cfg Config
	// slots holds one token per running call. A freed token goes to
	// the longest-blocked sender, so waiters run in arrival order.
	slots chan struct{}

	// mu orders admissions against Shutdown: a call joins live under
	// the read lock while shutdown is false, so none joins after the
	// drain began. No blocking operation runs under it.
	mu       sync.RWMutex
	shutdown bool

	// live counts the calls inside Do that got past the shutdown
	// check, plus one for the pool itself until Shutdown; whoever takes
	// it to zero ends the drain. Shutdown writes drainStart before it
	// releases the pool's unit, and the atomic count publishes it to
	// the last call out.
	live       atomic.Int64
	drainStart time.Time
	drained    chan struct{}

	admitted, completed        atomic.Uint64
	shedOverload, shedDeadline atomic.Uint64
	shedAtDequeue              atomic.Uint64
	canceled, rejectedShutdown atomic.Uint64
	queuedGauge, inFlightGauge atomic.Int64
	drainNanos                 atomic.Int64
}

// NewPool returns a pool ready to admit calls. It starts no goroutine.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, slots: make(chan struct{}, cfg.Workers), drained: make(chan struct{})}
	p.live.Store(1)
	return p
}

// Do admits fn and runs it on the calling goroutine once a run slot is
// free, returning nil after fn has returned. fn receives ctx and must
// honor its cancellation. Do returns a non-nil error only when fn
// never ran: an *OverloadError (ErrOverloaded, ErrShed or
// ErrShuttingDown) or a wrapped ctx error if the caller's context
// ended while it waited for a slot. A panic in fn reaches Do's caller
// after the slot is released.
func (p *Pool) Do(ctx context.Context, fn func(context.Context)) error {
	// Deadline-doomed work is shed before it costs anything.
	if ctx.Err() != nil {
		p.shedDeadline.Add(1)
		return p.overload(ErrShed)
	}

	p.mu.RLock()
	if p.shutdown {
		p.mu.RUnlock()
		p.rejectedShutdown.Add(1)
		return p.overload(ErrShuttingDown)
	}
	p.live.Add(1)
	p.mu.RUnlock()
	defer p.leave()

	if fault.Enabled && fault.Active(fault.SiteServeQueueFull) {
		p.shedOverload.Add(1)
		return p.overload(ErrOverloaded)
	}
	select {
	case p.slots <- struct{}{}:
		p.admitted.Add(1)
	default:
		if err := p.await(ctx); err != nil {
			return err
		}
	}
	defer p.release()
	p.inFlightGauge.Add(1)
	fn(ctx)
	return nil
}

// await queues a caller that found every run slot taken and parks it
// until it holds one. It sheds the caller if QueueDepth others are
// already waiting; the compare-and-swap never over-counts, so a caller
// is shed only when they really are. A waiter whose context ends is
// canceled; one whose context is dead by the time it gets a slot gives
// the slot back and is shed before its job runs, so queue delay never
// turns into wasted solver time.
func (p *Pool) await(ctx context.Context) error {
	for {
		q := p.queuedGauge.Load()
		if q >= int64(p.cfg.QueueDepth) {
			p.shedOverload.Add(1)
			return p.overload(ErrOverloaded)
		}
		if p.queuedGauge.CompareAndSwap(q, q+1) {
			break
		}
	}
	p.admitted.Add(1)
	select {
	case p.slots <- struct{}{}:
		p.queuedGauge.Add(-1)
	case <-ctx.Done():
		p.queuedGauge.Add(-1)
		p.canceled.Add(1)
		return fmt.Errorf("serve: canceled while queued: %w", ctx.Err())
	}
	if ctx.Err() != nil {
		<-p.slots
		p.shedDeadline.Add(1)
		p.shedAtDequeue.Add(1)
		return p.overload(ErrShed)
	}
	return nil
}

// release ends a running call, also when its job panicked: the call
// counts as completed and its slot frees.
func (p *Pool) release() {
	p.inFlightGauge.Add(-1)
	p.completed.Add(1)
	<-p.slots
}

// leave takes one unit off the live count: a call into Do as it
// returns, or the pool's own unit at the first Shutdown. Whoever takes
// it to zero ends the drain: it records how long the drain took (at
// least 1ns, so a finished drain never reads as zero) and releases
// every Shutdown call waiting on drained.
func (p *Pool) leave() {
	if p.live.Add(-1) == 0 {
		p.drainNanos.Store(max(time.Since(p.drainStart).Nanoseconds(), 1))
		close(p.drained)
	}
}

// overload builds the typed error with current pressure context.
func (p *Pool) overload(sentinel error) error {
	return &OverloadError{
		Sentinel: sentinel,
		Queued:   int(p.queuedGauge.Load()),
		Capacity: p.cfg.QueueDepth,
		Workers:  p.cfg.Workers,
	}
}

// Shutdown stops admissions immediately (subsequent Do calls return
// ErrShuttingDown) and waits until every admitted call, running or
// still waiting for a slot, has returned. It returns nil once the pool
// is fully drained, with Stats().DrainDuration set, or ctx.Err() if
// ctx ends first — then the admitted calls keep draining and Shutdown
// may be called again to keep waiting. Safe to call multiple times.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.shutdown {
		p.shutdown = true
		p.drainStart = time.Now()
		p.leave()
	}
	p.mu.Unlock()

	select {
	case <-p.drained:
	case <-ctx.Done():
		select {
		case <-p.drained: // a finished drain wins over a done ctx
		default:
			return fmt.Errorf("serve: shutdown drain interrupted: %w", ctx.Err())
		}
	}
	return nil
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not taken under one lock).
func (p *Pool) Stats() Stats {
	return Stats{
		Admitted:         p.admitted.Load(),
		Completed:        p.completed.Load(),
		ShedOverload:     p.shedOverload.Load(),
		ShedDeadline:     p.shedDeadline.Load(),
		ShedAtDequeue:    p.shedAtDequeue.Load(),
		Canceled:         p.canceled.Load(),
		RejectedShutdown: p.rejectedShutdown.Load(),
		Queued:           int(p.queuedGauge.Load()),
		InFlight:         int(p.inFlightGauge.Load()),
		Workers:          p.cfg.Workers,
		QueueDepth:       p.cfg.QueueDepth,
		DrainDuration:    time.Duration(p.drainNanos.Load()),
	}
}
