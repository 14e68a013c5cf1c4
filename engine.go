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

	"repro/internal/parallel"
	"repro/internal/serve"
)

// Admission errors returned by Engine.Query. They alias the
// internal/serve sentinels, so errors.Is works with either name; the
// concrete error in the chain is a *serve.OverloadError carrying the
// queue depth, capacity and run-slot count at the moment of the
// decision.
var (
	// ErrOverloaded: every run slot was taken and the bounded wait
	// queue was full; the request was shed before touching the
	// geometry core.
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
	sharded             bool
	shards              int
	shardEps            float64
}

// WithWorkers sets the number of run slots: how many queries execute
// at once (default GOMAXPROCS), each on its caller's goroutine. This
// is the hard cap on simultaneous solver work. Each
// live query's solver runs max(1, GOMAXPROCS / n) wide.
func WithWorkers(n int) EngineOption { return func(o *engineOptions) { o.workers = n } }

// WithQueueDepth bounds how many admitted queries may wait for a run
// slot (default twice the worker count). Requests beyond it are
// shed with ErrOverloaded.
func WithQueueDepth(n int) EngineOption { return func(o *engineOptions) { o.queueDepth = n } }

// WithQueryTimeout caps the wall-clock budget of every query (default
// none). The effective budget is the smaller of this cap and the
// request's own deadline; it threads into the geometric hot loops via
// the context-aware core entry points, so one pathological instance
// cannot hold a run slot past its budget.
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

// WithSnapshot makes path a startup cache of the engine's default
// prefix list (the StoredList every default query is served from, see
// NewEngine). NewEngine loads path and serves from the loaded list,
// growing it on demand if it is partial (BuildIndexUpTo). When the
// file is missing, corrupt (ErrCorruptIndex) or built from a
// different dataset (ErrIndexMismatch), it builds the list to the end
// and atomically rewrites the snapshot instead of failing; the
// rebuild is recorded in Stats().SnapshotRebuilt. The file is read
// and written nowhere else: Apply folds as on any engine, so after a
// fold the file describes the startup dataset, and a restart over the
// mutated dataset rebuilds it. To persist a folded epoch's list, call
// BuildIndex and SaveFile on Engine.Dataset(). Answers are the same
// with or without it; it trades one full list build at startup for
// restarts over an unchanged dataset that start with the whole list.
// An engine with WithShardedServing cannot take a snapshot: NewEngine
// refuses the pair before it touches path.
func WithSnapshot(path string) EngineOption {
	return func(o *engineOptions) { o.snapshotPath = path }
}

// WithWatchdog flags a query still running one full interval past its
// deadline — evidence that a solver is stuck in a loop the
// cancellation checks cannot reach. Each query with a deadline arms
// its own timer for deadline + interval, disarmed when it returns; a
// query without a deadline is never flagged. A flagged query is
// counted once in Stats().WatchdogStuck and the breaker of its
// requested algorithm is quarantined: it trips open immediately, so
// follow-up traffic for that solver short-circuits to Cube instead of
// piling onto stuck solvers. A flagged Cube query is counted and
// trips nothing. Default: disabled.
func WithWatchdog(interval time.Duration) EngineOption {
	return func(o *engineOptions) { o.watchdogInterval = interval }
}

// EngineStats is a point-in-time snapshot of the serving counters.
type EngineStats struct {
	// Admission counters, from the admission gate: Admitted took a run
	// slot or entered the queue; Completed ran; ShedOverload and
	// ShedDeadline were dropped before any solver work (slots and queue
	// full / deadline already dead); Canceled were abandoned by their
	// caller while queued; RejectedShutdown arrived after Shutdown.
	// Queued and InFlight are current gauges; Workers is the number of
	// run slots.
	Admitted, Completed        uint64
	ShedOverload, ShedDeadline uint64
	Canceled, RejectedShutdown uint64
	Queued, InFlight           int
	Workers, QueueDepth        int
	// Degraded counts answers produced by the numerical fallback
	// chain; BreakerShortCircuits counts queries an open breaker
	// routed straight to Cube without attempting the requested
	// solver. Breakers maps each guarded algorithm ("GeoGreedy",
	// "Greedy") to its breaker's current state ("closed", "open",
	// "half-open").
	Degraded             uint64
	BreakerShortCircuits uint64
	Breakers             map[string]string
	// Self-healing counters. ShedAtDequeue is the subset of
	// ShedDeadline dropped after admission (see serve.Stats); Retries
	// counts the ε-perturbed re-runs the degradation chain made after
	// a numerical failure (the first fallback stage, DESIGN.md §9) and
	// RetrySuccesses the ones that answered; WatchdogStuck counts
	// queries the watchdog found running one interval past their
	// deadline (each quarantines its algorithm's breaker).
	// DrainDuration is how long the shutdown drain took, zero until it
	// has completed.
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
	// folds, Epoch − 1, since every fold swaps in its epoch.
	Epoch            uint64
	MutationsApplied uint64
	Rebuilds         uint64
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

// Engine is the production serving layer around a Dataset: an
// admission gate of run slots with load shedding, per-query wall-clock
// budgets, circuit breakers around the numerical fallback chain, and
// optional crash-safe index snapshots. Each query runs on its caller's
// goroutine; the engine keeps no goroutine of its own. One Engine is
// meant to serve many concurrent callers; all methods are safe for
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
	// its sharded view, swapped atomically by each Apply that changed
	// the dataset. In-flight queries finish on the epoch they loaded;
	// new queries see the new one. Copy-on-write, no read locks.
	epoch atomic.Pointer[engineEpoch]
	pool  *serve.Pool
	// breakers guards each adaptive solver, GeoGreedy and Greedy, with
	// one breaker; Cube has nothing to break and no entry. The map is
	// filled at construction and only read after.
	breakers map[Algorithm]*serve.Breaker
	opts     engineOptions
	// idx is the index WithSnapshot loaded or built at startup, nil
	// without it. Folds leave it alone.
	idx *Index
	// perQueryWorkers is the width every live solver runs at:
	// GOMAXPROCS divided by the number of run slots, at least 1.
	perQueryWorkers int

	degraded        atomic.Uint64
	breakerShorts   atomic.Uint64
	retries         atomic.Uint64
	retrySuccesses  atomic.Uint64
	watchdogStuck   atomic.Uint64
	applied         atomic.Uint64
	shardFallbacks  atomic.Uint64
	stopping        atomic.Bool
	snapshotRebuilt bool

	// muApply serializes mutation application and epoch folds.
	muApply sync.Mutex
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

// NewEngine builds a serving engine over ds. Default queries
// (GeoGreedy over happy points) are answered in O(k) from a prefix of
// the paper's StoredList, which each epoch grows on demand: a k the
// list does not cover rebuilds it once to max(k, 2·length). The list
// is built over the epoch's skyline and kept when every point it
// relies on is a happy point, so a cold start skips the happy-point
// pass; otherwise it is built over the happy points. Either way the
// answers are bit-identical to Dataset.Query's. With WithSnapshot the
// first epoch's list is loaded from (or built to the end and written
// to) a snapshot file. Other configurations run their solver per
// query.
func NewEngine(ds *Dataset, opts ...EngineOption) (*Engine, error) {
	return NewEngineContext(context.Background(), ds, opts...)
}

// NewEngineContext is NewEngine with the startup work bounded by a
// context: the sharded partition–merge build and the snapshot index
// load/rebuild can be expensive at scale, and cancellation stops them
// at the same granularity as queries. The context bounds construction
// only — the engine itself lives until Shutdown, not until ctx ends.
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
	bc := serve.BreakerConfig{Threshold: o.breakerThreshold, Cooldown: o.breakerCooldown}
	e := &Engine{
		base: ds,
		opts: o,
		breakers: map[Algorithm]*serve.Breaker{
			AlgoGeoGreedy: serve.NewBreaker(bc),
			AlgoGreedy:    serve.NewBreaker(bc),
		},
	}
	ep := &engineEpoch{num: 1, ds: ds.Snapshot()}
	e.shardEpoch(ctx, ep)
	if o.snapshotPath != "" {
		idx, rebuilt, err := loadOrRebuildIndex(ctx, ep.ds, o.snapshotPath)
		if err != nil {
			return nil, err
		}
		e.idx, e.snapshotRebuilt = idx, rebuilt
	}
	e.epoch.Store(ep)
	e.pool = serve.NewPool(serve.Config{Workers: o.workers, QueueDepth: o.queueDepth})
	e.perQueryWorkers = derivePerQueryWorkers(parallel.Resolve(0), e.pool.Stats().Workers)
	return e, nil
}

// derivePerQueryWorkers splits a width budget (the engine passes
// GOMAXPROCS) evenly over the run slots, so inter-query and
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
// snapshot that loads becomes the prefix list of ds's epoch; a missing,
// corrupt or mismatched one is replaced by a fresh build to the end
// under ctx, written back atomically. Only unexpected failures (I/O
// errors, a canceled or numerically failing build) propagate.
func loadOrRebuildIndex(ctx context.Context, ds *Dataset, path string) (*Index, bool, error) {
	idx, err := LoadFile(path, ds)
	if err == nil {
		if err = ds.snap().adopt(ctx, idx); err == nil {
			return idx, false, nil
		}
	}
	if !loadFailureRebuildable(err) {
		return nil, false, fmt.Errorf("kregret: engine snapshot: %w", err)
	}
	idx, berr := ds.buildIndex(ctx, 0)
	if berr != nil {
		return nil, false, fmt.Errorf("kregret: engine snapshot unusable (%w) and rebuild failed: %w", err, berr)
	}
	if serr := idx.SaveFile(path, ds); serr != nil {
		return nil, false, fmt.Errorf("kregret: rewriting engine snapshot: %w", serr)
	}
	return idx, true, nil
}

// adopt makes a loaded snapshot's list the epoch's prefix list. A list
// over the epoch's skyline (filled under ctx; the load seeded it) was
// checked when it was built, so its cell is checked and grows the same
// way.
func (s *dsState) adopt(ctx context.Context, idx *Index) error {
	sky, err := s.skylineCtx(ctx)
	if err != nil {
		return err
	}
	cell := &prefixCell{checked: slices.Equal(idx.cand, sky)}
	cell.list.Store(idx.list)
	s.prefix.Store(&prefixView{cell: cell, cand: idx.cand})
	return nil
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

// serveOnce answers one admitted query, on its caller's goroutine,
// under the per-query wall-clock budget. A failure returns at once:
// the one re-run worth making, over perturbed candidates, already
// happened inside the degradation chain. It loads the serving epoch
// exactly once, up front: every read below — prefix list, solver —
// comes from that one generation, so an epoch swap mid-query cannot
// hand the query a mixed view.
func (e *Engine) serveOnce(ctx context.Context, k int, opts []Option) (*Answer, error) {
	if e.opts.maxQueryTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.maxQueryTime)
		defer cancel()
	}
	o := resolveOptions(opts)
	ep := e.epoch.Load()
	if e.opts.watchdogInterval > 0 {
		if deadline, ok := ctx.Deadline(); ok { // unbounded work is never stuck
			defer e.armWatchdog(o.algorithm, deadline)()
		}
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
	// numerically. (A skyline fill that fails leaves view nil; the
	// solve below fails on it too and reports it.)
	var view *prefixView
	st := serveDS.snap()
	if o.algorithm == AlgoGeoGreedy && o.candidates == CandidatesHappy {
		if v, err := st.listView(ctx); err == nil {
			if l := v.cell.list.Load(); l.Covers(k) {
				if ans, err := listAnswer(l, v.cand, k); err == nil {
					remap(ans)
					return ans, nil
				}
			}
			view = v
		}
	}
	// serveQuery answers under o, or under a copy of o for the open
	// breaker's Cube route, which the prefix list never serves.
	serveQuery := func(o *options) (*Answer, error) {
		var (
			ans *Answer
			deg degradation
			err error
		)
		if view != nil && o.algorithm == AlgoGeoGreedy {
			ans, deg, err = view.query(ctx, st, k, e.perQueryWorkers, o)
		} else {
			ans, deg, err = serveDS.queryContext(ctx, k, e.perQueryWorkers, o)
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

	br := e.breakers[o.algorithm]
	if br == nil {
		// Cube is the floor of the fallback chain — non-adaptive
		// arithmetic with nothing to break. (An unknown algorithm has no
		// breaker either, and the solve refuses it.)
		return serveQuery(&o)
	}
	if !br.Allow() {
		cube := o
		cube.algorithm = AlgoCube
		ans, err := serveQuery(&cube)
		if err != nil {
			return nil, err
		}
		e.breakerShorts.Add(1)
		e.degraded.Add(1)
		ans.Degraded = true
		ans.FallbackReason = fmt.Sprintf("circuit breaker open for %v: served by Cube without attempting it", o.algorithm)
		return ans, nil
	}

	ans, err := serveQuery(&o)
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

// Stats snapshots the serving counters.
func (e *Engine) Stats() EngineStats {
	ps := e.pool.Stats()
	breakers := make(map[string]string, len(e.breakers))
	for alg, b := range e.breakers {
		breakers[alg.String()] = b.State().String()
	}
	ep := e.epoch.Load()
	return EngineStats{
		Shards:               ep.shards,
		CoreSize:             len(ep.coreMap),
		CoresetBuildTime:     ep.coresetBuild,
		ShardFallbacks:       e.shardFallbacks.Load(),
		Epoch:                ep.num,
		MutationsApplied:     e.applied.Load(),
		Rebuilds:             ep.num - 1,
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

// armWatchdog schedules the stuck-query check of one query for alg:
// if it is still running one interval past deadline, the timer counts
// it in WatchdogStuck and trips alg's breaker (Cube has none). The
// returned disarm stops the timer when the query returns, or waits out
// a check that already fired, so the flag is visible by the time Query
// returns.
func (e *Engine) armWatchdog(alg Algorithm, deadline time.Time) (disarm func()) {
	fired := make(chan struct{})
	t := time.AfterFunc(time.Until(deadline)+e.opts.watchdogInterval, func() {
		e.watchdogStuck.Add(1)
		if br := e.breakers[alg]; br != nil {
			br.Trip()
		}
		close(fired)
	})
	return func() {
		if !t.Stop() {
			<-fired
		}
	}
}

// Shutdown stops admissions (new queries return ErrShuttingDown),
// waits for the queued and in-flight queries, and returns once the
// engine is idle — or ctx.Err() if ctx ends first, in which case those
// queries keep finishing on their callers' goroutines and Shutdown may
// be called again. The engine starts no goroutine, so it leaves none
// behind. Safe to call multiple times; a post-shutdown Query never
// blocks.
func (e *Engine) Shutdown(ctx context.Context) error {
	// Stop accepting mutations before the query drain: an Apply
	// admitted after this point could swap an epoch no query will
	// ever see. One already inside Apply finishes its fold — the
	// drain below does not race it, epoch swaps are atomic.
	e.stopping.Store(true)
	return e.pool.Shutdown(ctx)
}

// Index returns the index WithSnapshot loaded or built at startup, or
// nil when the engine was built without it. Queries beyond a partial
// loaded index still answer, from the epoch's grown prefix list; Index
// keeps returning the list the snapshot holds. It describes the first
// epoch: until the first fold it saves against Dataset() (or the
// Dataset given to NewEngine, while that holds the epoch), and after
// one that is ErrIndexMismatch, as for any stale index. A folded
// epoch's index is Dataset().BuildIndex().
func (e *Engine) Index() *Index { return e.idx }

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

// Apply durably applies mutations to the engine's dataset and folds
// the whole batch, once, into a fresh serving epoch: warm candidate
// caches arrive pre-seeded by the per-mutation incremental fold
// (DESIGN.md §16; cold caches stay cold and compute lazily), and the
// epoch pointer is swapped atomically — queries already running
// finish on the old epoch, new queries see the fold. No list is built
// and no index written (WithSnapshot's file is a startup cache). After
// the swap a WAL-backed dataset is compacted once its log has grown
// larger than the base snapshot it extends, so an acknowledged
// mutation costs its log record, not a snapshot rewrite (DESIGN.md
// §15).
//
// Mutations are applied in order and each is durable (WAL-appended
// and fsynced per the dataset's WithSyncEvery) before the next is
// attempted. On error, every mutation before the failing one remains
// applied, durable and folded; the error says which one failed. An
// error from the post-swap compaction does not undo any mutation —
// re-applying is never the right response to it: the log stays larger
// than the snapshot, so the next fold compacts again. After Shutdown
// has begun, Apply returns ErrShuttingDown without applying anything.
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
			return errors.Join(fmt.Errorf("kregret: apply mutation %d: %w", i, err), e.foldLocked(ctx))
		}
		e.applied.Add(1)
	}
	return e.foldLocked(ctx)
}

// foldLocked snapshots the live dataset into the successor epoch,
// gives it its sharded view (which falls back rather than fail) and
// swaps it in, then compacts. Nothing before the swap can fail, so
// every fold that starts is served. It does nothing while the serving
// epoch already holds every applied mutation. Callers hold muApply.
func (e *Engine) foldLocked(ctx context.Context) error {
	old := e.epoch.Load()
	if e.base.Seq() == old.ds.Seq() {
		return nil
	}
	ep := &engineEpoch{num: old.num + 1, ds: e.base.Snapshot()}
	e.shardEpoch(ctx, ep)
	e.epoch.Store(ep)

	// Compaction rides behind the swap: serving switches to the new
	// epoch immediately, and the disk write only bounds recovery time.
	// A failure is reported but changes nothing in memory — the WAL
	// already holds every mutation durably, and the next fold retries,
	// since the log is still larger than the snapshot.
	if err := e.base.compactIfOutgrown(); err != nil {
		return fmt.Errorf("kregret: post-fold compaction: %w", err)
	}
	return nil
}
