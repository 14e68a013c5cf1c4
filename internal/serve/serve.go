// Package serve is the admission-control layer of the serving engine:
// a bounded worker pool with a bounded wait queue, deadline-aware load
// shedding, and a graceful drain on shutdown. It is deliberately
// generic — jobs are plain closures — so the geometry layer above it
// (kregret.Engine) decides what a query is while this package decides
// only whether and when it may run.
//
// Admission is strict and happens before any expensive work:
//
//   - a request whose context is already dead is shed (ErrShed);
//   - a request that finds the wait queue full is shed (ErrOverloaded);
//   - a request arriving after Shutdown is rejected (ErrShuttingDown).
//
// Admitted requests wait in the queue; a worker re-checks the request
// context at dequeue time and sheds deadline-doomed work before it
// touches the job, so queue delay never converts into wasted solver
// time. Every outcome is counted in Stats.
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
	// time of the decision; Workers is the pool size.
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
	// Workers is the number of goroutines executing jobs — the hard
	// bound on concurrent solver work.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a worker.
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
	// Admitted counts requests that entered the wait queue.
	Admitted uint64
	// Completed counts jobs that a worker ran to completion
	// (successfully or not — job outcomes belong to the caller).
	Completed uint64
	// ShedOverload counts requests dropped at admission because the
	// queue was full.
	ShedOverload uint64
	// ShedDeadline counts requests dropped because their deadline had
	// expired — at admission or at dequeue, before the job ran.
	ShedDeadline uint64
	// ShedAtDequeue is the subset of ShedDeadline dropped by a worker
	// at dequeue time, i.e. after the request was Admitted. It makes
	// the conservation identity exact at any drain point:
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
	// first Shutdown call to the last worker exiting. Zero until the
	// drain has completed.
	DrainDuration time.Duration
}

// task states: a task is claimed exactly once, by CAS, by whichever
// side (worker or waiting caller) acts first. This is what makes
// "every request is answered, shed or canceled — none lost" hold
// under the race between cancellation and dequeue.
const (
	taskPending int32 = iota
	taskRunning
	taskAbandoned
	taskShed
)

type task struct {
	// The request context rides in the task because the worker must
	// re-check the deadline at dequeue time; the task never outlives
	// the Do call that created it, so this is a request-scoped
	// carrier, not a stored context.
	//kregret:allow ctxflow: request-scoped carrier, dies with the Do call that made it
	ctx   context.Context
	fn    func(context.Context)
	state atomic.Int32
	// result is written by the claim winner before done is closed;
	// the channel close publishes it to the waiter.
	result error
	done   chan struct{}
}

// Pool is a bounded worker pool. Create with NewPool; safe for
// concurrent use.
type Pool struct {
	cfg   Config
	queue chan *task

	// mu guards state and serializes admissions against the queue
	// close in Shutdown (sends are non-blocking, so the read lock is
	// held only briefly).
	mu       sync.RWMutex
	shutdown bool

	// live counts running workers; the last one out closes drained.
	// Shutdown writes drainStart before it closes the queue, and the
	// close publishes it to the workers.
	live       atomic.Int32
	drainStart time.Time
	drained    chan struct{}

	admitted, completed        atomic.Uint64
	shedOverload, shedDeadline atomic.Uint64
	shedAtDequeue              atomic.Uint64
	canceled, rejectedShutdown atomic.Uint64
	queuedGauge, inFlightGauge atomic.Int64
	drainNanos                 atomic.Int64
}

// NewPool starts the workers and returns a running pool. The worker
// goroutines are bound to the pool's lifetime, not to any request:
// they exit when Shutdown closes the queue, which is the context-free
// lifecycle contract of a server-side pool.
//
//kregret:allow ctxflow: worker lifetime is governed by Shutdown, not a request context
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, queue: make(chan *task, cfg.QueueDepth), drained: make(chan struct{})}
	p.live.Store(int32(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Do admits fn, waits for a worker to run it, and returns nil once fn
// has returned. fn receives ctx and must honor its cancellation. Do
// returns a non-nil error only when fn never ran: an *OverloadError
// (ErrOverloaded, ErrShed or ErrShuttingDown) or a wrapped ctx error
// if the caller's context ended while the job was still queued. If
// fn has started, Do always waits for it to finish, so values written
// by fn are safe to read whenever Do returns nil.
func (p *Pool) Do(ctx context.Context, fn func(context.Context)) error {
	// Deadline-doomed work is shed before it costs anything.
	if ctx.Err() != nil {
		p.shedDeadline.Add(1)
		return p.overload(ErrShed)
	}
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}

	p.mu.RLock()
	if p.shutdown {
		p.mu.RUnlock()
		p.rejectedShutdown.Add(1)
		return p.overload(ErrShuttingDown)
	}
	if fault.Enabled && fault.Active(fault.SiteServeQueueFull) {
		p.mu.RUnlock()
		p.shedOverload.Add(1)
		return p.overload(ErrOverloaded)
	}
	select {
	case p.queue <- t:
		p.mu.RUnlock()
		p.admitted.Add(1)
		p.queuedGauge.Add(1)
	default:
		p.mu.RUnlock()
		p.shedOverload.Add(1)
		return p.overload(ErrOverloaded)
	}

	select {
	case <-t.done:
		return t.result
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskPending, taskAbandoned) {
			// Still queued: the worker will skip it.
			p.canceled.Add(1)
			return fmt.Errorf("serve: canceled while queued: %w", ctx.Err())
		}
		// A worker claimed it first — the job is running (or was
		// shed); wait for the authoritative outcome. fn sees the same
		// ctx and returns promptly on cancellation.
		<-t.done
		return t.result
	}
}

func (p *Pool) worker() {
	for t := range p.queue {
		p.queuedGauge.Add(-1)
		if t.ctx.Err() != nil {
			// Deadline died in the queue: shed before the job runs.
			if t.state.CompareAndSwap(taskPending, taskShed) {
				p.shedDeadline.Add(1)
				p.shedAtDequeue.Add(1)
				t.result = p.overload(ErrShed)
				close(t.done)
			}
			continue
		}
		if !t.state.CompareAndSwap(taskPending, taskRunning) {
			continue // abandoned by its caller
		}
		p.inFlightGauge.Add(1)
		t.fn(t.ctx)
		p.inFlightGauge.Add(-1)
		p.completed.Add(1)
		close(t.done)
	}
	// Shutdown closed the queue and it is empty. The last worker out
	// ends the drain: it records how long the drain took (at least
	// 1ns, so a finished drain never reads as zero) and releases every
	// Shutdown call waiting on drained.
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
// ErrShuttingDown), lets the workers drain every already-queued job,
// and waits for in-flight jobs to finish. It returns nil once the
// pool is fully drained, with Stats().DrainDuration set, or ctx.Err()
// if ctx ends first — then the workers keep draining and Shutdown may
// be called again to keep waiting. Safe to call multiple times.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.shutdown {
		p.shutdown = true
		p.drainStart = time.Now()
		close(p.queue)
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
