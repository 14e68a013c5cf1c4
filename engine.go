package kregret

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// Admission errors returned by Engine.Query. They alias the
// internal/serve sentinels, so errors.Is works with either name; the
// concrete error in the chain is a *serve.OverloadError carrying the
// queue depth, capacity and worker count at the moment of the
// decision.
var (
	// ErrOverloaded: the bounded wait queue was full; the request was
	// shed before touching the geometry core.
	ErrOverloaded = serve.ErrOverloaded
	// ErrShed: the request's deadline had already expired (at
	// admission or while it waited in the queue); no solver ran.
	ErrShed = serve.ErrShed
	// ErrShuttingDown: the engine no longer accepts queries.
	ErrShuttingDown = serve.ErrShuttingDown
)

// EngineOption customizes NewEngine.
type EngineOption func(*engineOptions)

type engineOptions struct {
	workers, queueDepth int
	maxQueryTime        time.Duration
	breakerThreshold    int
	breakerCooldown     time.Duration
	snapshotPath        string
	watchdogInterval    time.Duration
	rebuildEvery        int
	sharded             bool
	shards              int
	shardEps            float64
}

// WithWorkers bounds how many queries execute concurrently (default
// GOMAXPROCS). This is the hard cap on simultaneous solver work. Each
// live query's solver runs max(1, GOMAXPROCS / n) wide.
func WithWorkers(n int) EngineOption { return func(o *engineOptions) { o.workers = n } }

// WithQueueDepth bounds how many admitted queries may wait for a
// worker (default twice the worker count). Requests beyond it are
// shed with ErrOverloaded.
func WithQueueDepth(n int) EngineOption { return func(o *engineOptions) { o.queueDepth = n } }

// WithQueryTimeout caps the wall-clock budget of every query (default
// none). The effective budget is the smaller of this cap and the
// request's own deadline; it threads into the geometric hot loops via
// the context-aware core entry points, so one pathological instance
// cannot monopolize a worker past its budget.
func WithQueryTimeout(d time.Duration) EngineOption {
	return func(o *engineOptions) { o.maxQueryTime = d }
}

// WithBreaker tunes the circuit breakers around the numerical
// fallback chain: threshold is the decayed failure score that trips a
// breaker open, cooldown how long it stays open before a half-open
// probe (and the score's half-life). Defaults: 5 failures, 10s.
func WithBreaker(threshold int, cooldown time.Duration) EngineOption {
	return func(o *engineOptions) {
		o.breakerThreshold = threshold
		o.breakerCooldown = cooldown
	}
}

// WithSnapshot persists the engine's default prefix list (the
// StoredList every default query is served from, see NewEngine) in a
// snapshot file. At startup the engine loads path and serves from the
// loaded list, growing it on demand if it is partial (BuildIndexUpTo).
// When the file is missing, corrupt (ErrCorruptIndex) or built from a
// different dataset (ErrIndexMismatch), it builds the list to the end
// and atomically rewrites the snapshot instead of failing; the
// rebuild is recorded in Stats().SnapshotRebuilt. Each fold builds
// the new epoch's list to the end (a fold that keeps the happy points
// reuses its predecessor's) and writes it back. Answers are the same
// with or without it; it trades list builds at startup and on every
// fold for restarts that start with the whole list.
func WithSnapshot(path string) EngineOption {
	return func(o *engineOptions) { o.snapshotPath = path }
}

// WithRebuildThreshold sets how many applied mutations accumulate
// before Engine.Apply folds them into a fresh serving epoch. The
// default is 1 — every Apply call folds immediately, so readers never
// lag the durable state — and values below 1 are clamped to 1. Until
// the threshold is reached, queries keep answering from the previous
// epoch: mutations are already durable in the dataset's WAL, just not
// yet visible to the engine's readers. Raise it only to amortize
// candidate-set, coreset and index rebuild cost over bursts of
// mutations, accepting that bounded staleness in exchange.
func WithRebuildThreshold(n int) EngineOption {
	return func(o *engineOptions) { o.rebuildEvery = n }
}

// WithWatchdog starts a background scanner that every interval checks
// the in-flight queries for work running past its deadline by more
// than one interval — evidence that a solver is stuck in a loop the
// cancellation checks cannot reach. Each stuck query is counted in
// Stats().WatchdogStuck and its breaker key (algorithm/dim bucket) is
// quarantined: the breaker trips open immediately, so follow-up
// traffic for the pathological regime short-circuits to Cube instead
// of piling onto stuck workers. The watchdog goroutine is joined by
// Shutdown. Default: disabled.
func WithWatchdog(interval time.Duration) EngineOption {
	return func(o *engineOptions) { o.watchdogInterval = interval }
}

// EngineStats is a point-in-time snapshot of the serving counters.
type EngineStats struct {
	// Admission counters, from the worker pool: Admitted entered the
	// queue; Completed ran; ShedOverload and ShedDeadline were
	// dropped before any solver work (queue full / deadline already
	// dead); Canceled were abandoned by their caller while queued;
	// RejectedShutdown arrived after Shutdown. Queued and InFlight
	// are current gauges.
	Admitted, Completed        uint64
	ShedOverload, ShedDeadline uint64
	Canceled, RejectedShutdown uint64
	Queued, InFlight           int
	Workers, QueueDepth        int
	// Degraded counts answers produced by the numerical fallback
	// chain; BreakerShortCircuits counts queries an open breaker
	// routed straight to Cube without attempting the requested
	// solver. Breakers maps each (algorithm/dim-bucket) key to its
	// current state ("closed", "open", "half-open").
	Degraded             uint64
	BreakerShortCircuits uint64
	Breakers             map[string]string
	// Self-healing counters. ShedAtDequeue is the subset of
	// ShedDeadline dropped after admission (see serve.Stats); Retries
	// counts the ε-perturbed re-runs the degradation chain made after
	// a numerical failure (the first fallback stage, DESIGN.md §9) and
	// RetrySuccesses the ones that answered; WatchdogStuck counts
	// in-flight queries the watchdog found running past their
	// deadline (each quarantines its breaker key). DrainDuration is
	// how long the shutdown drain took, zero until it has completed.
	ShedAtDequeue  uint64
	Retries        uint64
	RetrySuccesses uint64
	WatchdogStuck  uint64
	DrainDuration  time.Duration
	// SnapshotRebuilt reports that startup found the snapshot file
	// missing, corrupt or mismatched and rebuilt the index.
	SnapshotRebuilt bool
	// Mutation counters. Epoch is the serving epoch number (1 at
	// startup, +1 per fold); MutationsApplied counts mutations
	// durably applied through Engine.Apply; Rebuilds counts epoch
	// folds; PendingMutations is the gauge of applied-but-not-yet-
	// folded mutations (always below WithRebuildThreshold).
	Epoch            uint64
	MutationsApplied uint64
	Rebuilds         uint64
	PendingMutations int
	// Sharded serving gauges (WithShardedServing), all from the
	// current epoch: Shards is the effective shard count (0 when
	// unsharded or fallen back), CoreSize the merged core size,
	// CoresetBuildTime the partition–merge build cost.
	// ShardFallbacks counts epochs whose shard build failed and served
	// unsharded instead.
	Shards           int
	CoreSize         int
	CoresetBuildTime time.Duration
	ShardFallbacks   uint64
}

// Engine is the production serving layer around a Dataset: a bounded
// worker pool with admission control and load shedding, per-query
// wall-clock budgets, circuit breakers around the numerical fallback
// chain, and optional crash-safe index snapshots. One Engine is meant
// to serve many concurrent callers; all methods are safe for
// concurrent use.
//
//	eng, err := kregret.NewEngine(ds, kregret.WithWorkers(8))
//	defer eng.Shutdown(context.Background())
//	ans, err := eng.Query(ctx, 10)
type Engine struct {
	// base is the live, mutable dataset Engine.Apply writes through
	// (and the WAL behind it, when one is attached). Queries never
	// touch it: they run against the epoch below.
	base *Dataset
	// epoch is the immutable serving state: a Snapshot of base plus
	// its index, swapped atomically by Apply once enough mutations
	// accumulate. In-flight queries finish on the epoch they loaded;
	// new queries see the new one. Copy-on-write, no read locks.
	epoch    atomic.Pointer[engineEpoch]
	pool     *serve.Pool
	breakers *serve.BreakerSet
	opts     engineOptions
	// perQueryWorkers is the width every live solver runs at:
	// GOMAXPROCS divided by the pool's worker count, at least 1.
	perQueryWorkers int

	degraded        atomic.Uint64
	breakerShorts   atomic.Uint64
	retries         atomic.Uint64
	retrySuccesses  atomic.Uint64
	watchdogStuck   atomic.Uint64
	applied         atomic.Uint64
	rebuilds        atomic.Uint64
	shardFallbacks  atomic.Uint64
	stopping        atomic.Bool
	snapshotRebuilt bool

	// muApply serializes mutation application and epoch folds;
	// pending counts applied-but-not-yet-folded mutations.
	muApply sync.Mutex
	pending int

	// Watchdog lifecycle: nil channels when disabled. Shutdown closes
	// watchdogStop (once) and joins watchdogDone.
	watchdogStop chan struct{}
	watchdogDone chan struct{}
	watchdogOnce sync.Once

	// muInflight guards the in-flight query registry the watchdog
	// scans.
	muInflight sync.Mutex
	inflight   map[uint64]*inflightEntry
	inflightID uint64
}

// engineEpoch is one immutable generation of serving state: a
// read-only view of the dataset (pinned by Dataset.Snapshot), whose
// state (or, sharded, the core's) holds the default prefix list.
// Queries load the pointer once and use only the epoch for the rest of
// the attempt, so a concurrent Apply can swap in a successor without
// ever making a reader mix generations.
type engineEpoch struct {
	num uint64
	ds  *Dataset
	// idx wraps the complete (or loaded) prefix list in global
	// indices for persistence; non-nil only with WithSnapshot.
	idx *Index

	// Sharded serving view (WithShardedServing), nil/zero when the
	// engine is unsharded or the shard build for this epoch fell back:
	// serveDS holds the merged per-shard core as its own dataset,
	// coreMap translates its indices to ds indices, shards is the
	// effective shard count and coresetBuild the partition–merge cost.
	serveDS      *Dataset
	coreMap      []int
	shards       int
	coresetBuild time.Duration
}

// inflightEntry is one running query as the watchdog sees it: the
// breaker key it would quarantine and the deadline it must respect
// (zero when the request is unbounded — such work is never "stuck").
type inflightEntry struct {
	key      string
	deadline time.Time
	flagged  bool
}

// NewEngine builds a serving engine over ds. Default queries
// (GeoGreedy over happy points) are answered in O(k) from a prefix of
// the paper's StoredList, which each epoch grows on demand: a k the
// list does not cover rebuilds it once to max(k, 2·length). The
// answers are bit-identical to Dataset.Query's. With WithSnapshot the
// list is loaded from (or built to the end and written to) a snapshot
// file at startup. Other configurations run their solver per query.
func NewEngine(ds *Dataset, opts ...EngineOption) (*Engine, error) {
	return NewEngineContext(context.Background(), ds, opts...)
}

// NewEngineContext is NewEngine with the startup work bounded by a
// context: the sharded partition–merge build and the snapshot index
// load/rebuild can be expensive at scale, and cancellation stops them
// at the same granularity as queries. The context bounds construction
// only — the engine itself (and its watchdog goroutine, which Shutdown
// stops and joins) lives until Shutdown, not until ctx ends.
//
//kregret:allow ctxflow: the watchdog goroutine is engine-lifetime, stopped and joined by Shutdown, not request-scoped
func NewEngineContext(ctx context.Context, ds *Dataset, opts ...EngineOption) (*Engine, error) {
	if ds == nil {
		return nil, errors.New("kregret: engine needs a dataset")
	}
	var o engineOptions
	for _, f := range opts {
		f(&o)
	}
	if err := o.validateSharding(); err != nil {
		return nil, err
	}
	e := &Engine{
		base: ds,
		opts: o,
		breakers: serve.NewBreakerSet(serve.BreakerConfig{
			Threshold: o.breakerThreshold,
			Cooldown:  o.breakerCooldown,
		}),
	}
	ep := &engineEpoch{num: 1, ds: ds.Snapshot()}
	e.shardEpoch(ctx, ep)
	if o.snapshotPath != "" {
		idx, rebuilt, err := loadOrRebuildIndex(ctx, ep, o.snapshotPath)
		if err != nil {
			return nil, err
		}
		ep.idx, e.snapshotRebuilt = idx, rebuilt
	}
	e.epoch.Store(ep)
	e.pool = serve.NewPool(serve.Config{Workers: o.workers, QueueDepth: o.queueDepth})
	e.perQueryWorkers = derivePerQueryWorkers(parallel.Resolve(0), e.pool.Stats().Workers)
	if o.watchdogInterval > 0 {
		e.muInflight.Lock()
		e.inflight = map[uint64]*inflightEntry{}
		e.muInflight.Unlock()
		e.watchdogStop = make(chan struct{})
		e.watchdogDone = make(chan struct{})
		go e.watchdog(o.watchdogInterval)
	}
	return e, nil
}

// derivePerQueryWorkers splits a width budget (the engine passes
// GOMAXPROCS) evenly over the pool workers, so inter-query and
// intra-query concurrency compose to about the budget instead of
// multiplying; every query gets at least the sequential path.
func derivePerQueryWorkers(budget, poolWorkers int) int {
	if poolWorkers < 1 {
		poolWorkers = 1
	}
	if per := budget / poolWorkers; per > 1 {
		return per
	}
	return 1
}

// loadOrRebuildIndex implements the crash-safe startup path: a
// snapshot that loads and carries exactly the epoch's core (nil for an
// unsharded epoch) wins and its list becomes the epoch's prefix list;
// a missing, corrupt or mismatched one is replaced by a fresh build to
// the end under ctx, written back atomically. Only unexpected failures
// (I/O errors, a canceled or numerically failing build) propagate.
func loadOrRebuildIndex(ctx context.Context, ep *engineEpoch, path string) (*Index, bool, error) {
	idx, err := LoadFile(path, ep.ds)
	if err == nil {
		if err = ep.adopt(idx); err == nil {
			return idx, false, nil
		}
	}
	if !loadFailureRebuildable(err) {
		return nil, false, fmt.Errorf("kregret: engine snapshot: %w", err)
	}
	idx, berr := ep.buildIndex(ctx)
	if berr != nil {
		return nil, false, fmt.Errorf("kregret: engine snapshot unusable (%w) and rebuild failed: %w", err, berr)
	}
	if serr := idx.SaveFile(path, ep.ds); serr != nil {
		return nil, false, fmt.Errorf("kregret: rewriting engine snapshot: %w", serr)
	}
	return idx, true, nil
}

// serving is the state default queries run on: the sharded core's
// when the epoch has one, the dataset's otherwise.
func (ep *engineEpoch) serving() *dsState {
	if ep.serveDS != nil {
		return ep.serveDS.snap()
	}
	return ep.ds.snap()
}

// adopt makes a loaded snapshot's list the epoch's prefix list. The
// snapshot must carry exactly the epoch's core (nil when unsharded):
// a sharded core on an exact engine would serve silently approximate
// answers, an exact list on a sharded one would not match the core,
// and so would another shard/eps plan's core. A sharded snapshot's
// candidates, stored in global indices, are mapped back into the core.
func (ep *engineEpoch) adopt(idx *Index) error {
	if !slices.Equal(idx.core, ep.coreMap) {
		return fmt.Errorf("%w: snapshot core does not match the serving core", ErrIndexMismatch)
	}
	cand := idx.cand
	if ep.coreMap != nil {
		cand = make([]int, len(idx.cand))
		for i, g := range idx.cand {
			j, ok := slices.BinarySearch(ep.coreMap, g)
			if !ok {
				return fmt.Errorf("%w: snapshot candidate %d is not in the serving core", ErrIndexMismatch, g)
			}
			cand[i] = j
		}
	}
	cell := new(prefixCell)
	cell.list.Store(idx.list)
	ep.serving().prefix.Store(&prefixView{cell: cell, cand: cand})
	return nil
}

// buildIndex builds the epoch's prefix list to the end, through the
// cell's single flight, and wraps it as the epoch's snapshot Index in
// global indices (a sharded one records its core). A cell the epoch
// shares with its predecessor that already holds the whole list costs
// nothing.
func (ep *engineEpoch) buildIndex(ctx context.Context) (*Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("kregret: index build canceled: %w", err)
	}
	st := ep.serving()
	v, err := st.listView()
	if err != nil {
		return nil, err
	}
	l, err := v.cell.grow(ctx, len(v.cand), func(n int) (*core.StoredList, error) {
		return st.buildList(ctx, v.cand, n)
	})
	if err != nil {
		return nil, err
	}
	if ep.coreMap == nil {
		return &Index{list: l, cand: v.cand}, nil
	}
	cand := make([]int, len(v.cand))
	for i, c := range v.cand {
		cand[i] = ep.coreMap[c]
	}
	return &Index{list: l, cand: cand, core: slices.Clone(ep.coreMap)}, nil
}

// loadFailureRebuildable reports whether a snapshot load failure is
// one the startup path recovers from by rebuilding: missing, corrupt
// or built from different data. I/O errors and the like propagate.
func loadFailureRebuildable(err error) bool {
	return errors.Is(err, ErrCorruptIndex) || errors.Is(err, ErrIndexMismatch) || errors.Is(err, os.ErrNotExist)
}

// Query answers a k-regret query through the serving pipeline:
// admission (shed on overload or a dead deadline), a per-query
// wall-clock budget, then the epoch's solver path. A default query
// (GeoGreedy over happy points) whose k the epoch's prefix list
// covers is answered from it in O(k), the prefix copied into the
// answer. Any other query runs behind the circuit breaker of its
// configuration: an uncovered default query grows the list (one build
// serves every caller waiting on it), other configurations run their
// solver, and a numerical failure of either walks the degradation
// chain. While a breaker is open such a query is routed straight to
// the Cube fallback and the answer is marked Degraded with the breaker
// named in FallbackReason. Default answers are bit-identical to
// Dataset.Query's on the same epoch.
func (e *Engine) Query(ctx context.Context, k int, opts ...Option) (*Answer, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	var (
		ans *Answer
		err error
	)
	perr := e.pool.Do(ctx, func(jctx context.Context) {
		ans, err = e.serveOnce(jctx, k, opts)
	})
	if perr != nil {
		return nil, fmt.Errorf("kregret: %w", perr)
	}
	return ans, err
}

// serveOnce answers one admitted query on a worker goroutine under
// the per-query wall-clock budget. A failure returns at once: the one
// re-run worth making, over perturbed candidates, already happened
// inside the degradation chain. It loads the serving epoch exactly
// once, up front: every read below — prefix list, breaker key,
// solver — comes from that one generation, so an epoch swap mid-query cannot
// hand the query a mixed view.
func (e *Engine) serveOnce(ctx context.Context, k int, opts []Option) (*Answer, error) {
	if e.opts.maxQueryTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.maxQueryTime)
		defer cancel()
	}
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	ep := e.epoch.Load()
	if e.watchdogDone != nil {
		deadline, _ := ctx.Deadline() // zero when unbounded: never stuck
		id := e.registerInflight(breakerKey(o.algorithm, ep.ds.Dim()), deadline)
		defer e.unregisterInflight(id)
	}

	// Queries run against the serving view: the sharded merged core
	// for happy-candidate queries (answers remapped to global indices
	// below), the full dataset otherwise.
	serveDS, coreMap := ep.ds, []int(nil)
	if ep.serveDS != nil && o.candidates == CandidatesHappy {
		serveDS, coreMap = ep.serveDS, ep.coreMap
	}
	remap := func(ans *Answer) {
		if coreMap != nil {
			for i, ci := range ans.Indices {
				ans.Indices[i] = coreMap[ci]
			}
		}
	}

	// Default queries go through the prefix list. One it covers is
	// answered from it, with no breaker: reading a list cannot fail
	// numerically. (A happy-point fill that fails leaves view nil; the
	// solve below fails on it too and reports it.)
	var view *prefixView
	st := serveDS.snap()
	if o.algorithm == AlgoGeoGreedy && o.candidates == CandidatesHappy {
		if v, err := st.listView(); err == nil {
			if l := v.cell.list.Load(); l.Covers(k) {
				if ans, err := listAnswer(l, v.cand, k); err == nil {
					remap(ans)
					return ans, nil
				}
			}
			view = v
		}
	}
	serveQuery := func(extra ...Option) (*Answer, error) {
		var (
			ans *Answer
			deg degradation
			err error
		)
		if view != nil && len(extra) == 0 {
			ans, deg, err = view.query(ctx, st, k, e.perQueryWorkers, &o)
		} else {
			// Capping opts makes append copy instead of writing into
			// the caller's variadic slice.
			ans, deg, err = serveDS.queryContext(ctx, k, e.perQueryWorkers, append(opts[:len(opts):len(opts)], extra...)...)
		}
		if deg.retried {
			e.retries.Add(1)
		}
		if deg.rescued {
			e.retrySuccesses.Add(1)
		}
		if err == nil {
			remap(ans)
		}
		return ans, err
	}

	br := e.breakers.For(breakerKey(o.algorithm, ep.ds.Dim()))
	if o.algorithm == AlgoCube {
		// Cube is the floor of the fallback chain — non-adaptive
		// arithmetic with nothing to break.
		return serveQuery()
	}
	if !br.Allow() {
		ans, err := serveQuery(WithAlgorithm(AlgoCube))
		if err != nil {
			return nil, err
		}
		e.breakerShorts.Add(1)
		e.degraded.Add(1)
		ans.Degraded = true
		ans.FallbackReason = fmt.Sprintf("circuit breaker open for %s: served by Cube without attempting %v",
			breakerKey(o.algorithm, ep.ds.Dim()), o.algorithm)
		return ans, nil
	}

	ans, err := serveQuery()
	switch {
	case err == nil && !ans.Degraded:
		br.Record(true)
	case err == nil: // degraded: the requested solver failed numerically
		br.Record(false)
		e.degraded.Add(1)
	default:
		var ne *NumericalError
		if errors.As(err, &ne) {
			br.Record(false)
		}
		// Cancellation and validation errors say nothing about the
		// solver's numerical health; leave the breaker untouched.
	}
	return ans, err
}

// breakerKey buckets breakers by requested algorithm and dimension:
// numerical degeneracy risk grows with dimension, so a storm at d=7
// must not open the breaker for well-conditioned low-d traffic when
// one engine serves heterogeneous query options.
func breakerKey(alg Algorithm, dim int) string {
	bucket := dim
	if bucket > 8 {
		bucket = 8
	}
	return fmt.Sprintf("%v/d%d", alg, bucket)
}

// Stats snapshots the serving counters.
func (e *Engine) Stats() EngineStats {
	ps := e.pool.Stats()
	states := e.breakers.States()
	breakers := make(map[string]string, len(states))
	for k, s := range states {
		breakers[k] = s.String()
	}
	e.muApply.Lock()
	pending := e.pending
	e.muApply.Unlock()
	ep := e.epoch.Load()
	return EngineStats{
		Shards:               ep.shards,
		CoreSize:             len(ep.coreMap),
		CoresetBuildTime:     ep.coresetBuild,
		ShardFallbacks:       e.shardFallbacks.Load(),
		Epoch:                ep.num,
		MutationsApplied:     e.applied.Load(),
		Rebuilds:             e.rebuilds.Load(),
		PendingMutations:     pending,
		Admitted:             ps.Admitted,
		Completed:            ps.Completed,
		ShedOverload:         ps.ShedOverload,
		ShedDeadline:         ps.ShedDeadline,
		Canceled:             ps.Canceled,
		RejectedShutdown:     ps.RejectedShutdown,
		Queued:               ps.Queued,
		InFlight:             ps.InFlight,
		Workers:              ps.Workers,
		QueueDepth:           ps.QueueDepth,
		Degraded:             e.degraded.Load(),
		BreakerShortCircuits: e.breakerShorts.Load(),
		Breakers:             breakers,
		ShedAtDequeue:        ps.ShedAtDequeue,
		Retries:              e.retries.Load(),
		RetrySuccesses:       e.retrySuccesses.Load(),
		WatchdogStuck:        e.watchdogStuck.Load(),
		DrainDuration:        ps.DrainDuration,
		SnapshotRebuilt:      e.snapshotRebuilt,
	}
}

// watchdog periodically scans the in-flight registry for stuck work.
// It runs for the engine's lifetime and is joined by Shutdown.
func (e *Engine) watchdog(interval time.Duration) {
	defer close(e.watchdogDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.watchdogStop:
			return
		case now := <-t.C:
			e.scanInflight(now, interval)
		}
	}
}

// scanInflight flags every in-flight query running more than grace
// past its deadline — once per query — and quarantines its breaker
// key so follow-up traffic for the same regime short-circuits instead
// of piling onto a stuck solver.
func (e *Engine) scanInflight(now time.Time, grace time.Duration) {
	var stuck []string
	e.muInflight.Lock()
	for _, entry := range e.inflight {
		if entry.flagged || entry.deadline.IsZero() || now.Sub(entry.deadline) <= grace {
			continue
		}
		entry.flagged = true
		stuck = append(stuck, entry.key)
	}
	e.muInflight.Unlock()
	for _, key := range stuck {
		e.watchdogStuck.Add(1)
		e.breakers.For(key).Trip()
	}
}

// registerInflight records a starting attempt for the watchdog.
func (e *Engine) registerInflight(key string, deadline time.Time) uint64 {
	e.muInflight.Lock()
	defer e.muInflight.Unlock()
	e.inflightID++
	id := e.inflightID
	e.inflight[id] = &inflightEntry{key: key, deadline: deadline}
	return id
}

// unregisterInflight removes a finished attempt from the registry.
func (e *Engine) unregisterInflight(id uint64) {
	e.muInflight.Lock()
	defer e.muInflight.Unlock()
	delete(e.inflight, id)
}

// Shutdown stops admissions (new queries return ErrShuttingDown),
// drains the queued and in-flight queries, and returns once the
// engine is idle — or ctx.Err() if ctx ends first, in which case the
// drain continues in the background and Shutdown may be called again.
// Once the drain completes the watchdog goroutine is stopped and
// joined, so a fully shut-down engine leaves no goroutine behind.
// Safe to call multiple times; a post-shutdown Query never blocks.
func (e *Engine) Shutdown(ctx context.Context) error {
	// Stop accepting mutations before the query drain: an Apply
	// admitted after this point could swap an epoch no query will
	// ever see. One already inside Apply finishes its fold — the
	// drain below does not race it, epoch swaps are atomic.
	e.stopping.Store(true)
	if err := e.pool.Shutdown(ctx); err != nil {
		return err
	}
	if e.watchdogDone != nil {
		e.watchdogOnce.Do(func() { close(e.watchdogStop) })
		<-e.watchdogDone
	}
	return nil
}

// Index returns the current epoch's snapshot-backed index, or nil
// when the engine was built without WithSnapshot: the list loaded at
// startup, or the one built to the end at startup or by the last fold,
// in global indices. Queries beyond a partial loaded index still
// answer, from the epoch's grown prefix list; Index keeps returning
// the list the snapshot holds.
func (e *Engine) Index() *Index { return e.epoch.Load().idx }

// Dataset returns the current serving epoch's read-only dataset view.
// It is pinned: later mutations through Apply never change it.
func (e *Engine) Dataset() *Dataset { return e.epoch.Load().ds }

// Mutation is one dataset change submitted to Engine.Apply: build
// them with InsertMutation and DeleteMutation.
type Mutation struct {
	point  Point
	index  int
	insert bool
}

// InsertMutation appends a point (in the dataset's current normalized
// coordinate space — see Dataset.Insert). The coordinates are copied:
// the caller may reuse p.
func InsertMutation(p Point) Mutation {
	return Mutation{point: append(Point(nil), p...), insert: true}
}

// DeleteMutation removes the point at index i (later indices shift
// down by one — see Dataset.Delete).
func DeleteMutation(i int) Mutation { return Mutation{index: i} }

// Apply durably applies mutations to the engine's dataset and, once
// WithRebuildThreshold mutations have accumulated, folds them into a
// fresh serving epoch: warm candidate caches arrive pre-seeded by the
// per-mutation incremental fold (DESIGN.md §16; cold caches stay cold
// and compute lazily), the index (WithSnapshot) is rebuilt eagerly, and
// the epoch pointer is swapped atomically — queries already running
// finish on the old epoch, new queries see the fold. After the swap
// the engine persists best-effort: the rebuilt index is written back
// to the snapshot path, and a WAL-backed dataset is compacted once its
// log has grown larger than the base snapshot it extends, so an
// acknowledged mutation costs its log record, not a snapshot rewrite
// (DESIGN.md §15).
//
// Mutations are applied in order and each is durable (WAL-appended
// and fsynced per the dataset's WithSyncEvery) before the next is
// attempted. On error, every mutation before the failing one remains
// applied and durable; the error says which one failed. An error
// from the post-swap persistence or rebuild step does not undo any
// mutation — re-applying is never the right response to it, the next
// fold retries. After Shutdown has begun, Apply returns
// ErrShuttingDown without applying anything.
func (e *Engine) Apply(ctx context.Context, muts ...Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	e.muApply.Lock()
	defer e.muApply.Unlock()
	if e.stopping.Load() {
		return fmt.Errorf("kregret: apply: %w", ErrShuttingDown)
	}
	for i, m := range muts {
		var err error
		if m.insert {
			_, err = e.base.Insert(m.point)
		} else {
			err = e.base.Delete(m.index)
		}
		if err != nil {
			// The prefix before i is durable. Fold it in now rather
			// than leaving applied mutations invisible until an
			// arbitrarily later Apply.
			e.pending += i
			var ferr error
			if e.pending > 0 {
				ferr = e.foldLocked(ctx)
			}
			return errors.Join(fmt.Errorf("kregret: apply mutation %d: %w", i, err), ferr)
		}
		e.applied.Add(1)
	}
	e.pending += len(muts)
	threshold := e.opts.rebuildEvery
	if threshold < 1 {
		threshold = 1
	}
	if e.pending < threshold {
		return nil
	}
	return e.foldLocked(ctx)
}

// foldLocked builds the successor epoch from the live dataset and
// swaps it in, then persists best-effort. Callers hold muApply.
func (e *Engine) foldLocked(ctx context.Context) error {
	old := e.epoch.Load()
	ep := &engineEpoch{num: old.num + 1, ds: e.base.Snapshot()}
	e.shardEpoch(ctx, ep)
	if e.opts.snapshotPath != "" {
		idx, err := ep.buildIndex(ctx)
		if err != nil {
			// Mutations stay pending; the next Apply retries the
			// fold. Queries keep answering from the old epoch.
			return fmt.Errorf("kregret: epoch %d index rebuild: %w", ep.num, err)
		}
		ep.idx = idx
	}
	e.epoch.Store(ep)
	e.rebuilds.Add(1)
	e.pending = 0

	// Persistence rides behind the swap: serving switches to the new
	// epoch immediately, disk writes only bound restart/recovery
	// time. Both failures are reported but change nothing in memory —
	// the WAL already holds every mutation durably, and a compaction
	// that failed is retried by the next fold, since the log is still
	// larger than the snapshot.
	var errs []error
	if ep.idx != nil {
		if err := ep.idx.SaveFile(e.opts.snapshotPath, ep.ds); err != nil {
			errs = append(errs, fmt.Errorf("kregret: persisting epoch %d index: %w", ep.num, err))
		}
	}
	if err := e.base.compactIfOutgrown(); err != nil {
		errs = append(errs, fmt.Errorf("kregret: post-fold compaction: %w", err))
	}
	return errors.Join(errs...)
}
