// Package kregret answers k-regret queries (maximum regret ratio
// minimization): given a database of d-dimensional tuples where
// larger is better on every attribute, select at most k tuples so
// that, for every linear utility function a user might hold, the best
// selected tuple is almost as good as the best tuple in the whole
// database.
//
// The package implements "Geometry Approach for k-Regret Query"
// (Peng Peng and Raymond Chi-Wing Wong, ICDE 2014): the happy-point
// candidate set, the GeoGreedy algorithm, and its materialized
// variant StoredList, together with the LP-based Greedy baseline of
// Nanongkai et al. (VLDB 2010) that the paper compares against.
//
// # Quick start
//
//	ds, err := kregret.NewDataset(points)        // normalizes to (0,1]
//	ans, err := ds.Query(10)                     // GeoGreedy over happy points
//	fmt.Println(ans.Indices, ans.MRR)            // ≤ 10 tuples, their regret
//
// For repeated queries over the same data, build the materialized
// index once:
//
//	idx, err := ds.BuildIndex()                  // StoredList preprocessing
//	ans, err := idx.Query(10)                    // O(k) per query
//
// # Robustness
//
// Every query runs inside a hardened execution layer. QueryContext
// and the other *Context variants thread a context.Context through
// the geometric hot loops, so deadlines and cancellation stop even
// pathological hulls within one scan batch. Residual panics in the
// geometry core are converted into a typed *NumericalError instead of
// killing the process, and when GeoGreedy's hull machinery fails
// numerically the query degrades gracefully — a deterministic
// epsilon-perturbed retry, then the LP Greedy baseline, then Cube —
// with the degradation recorded in Answer.Degraded and
// Answer.FallbackReason (opt out with WithoutFallback). See
// DESIGN.md §9 for the full failure model.
//
// # Serving
//
// For many concurrent callers, NewEngine wraps a Dataset in a serving
// layer: an admission gate of run slots with a bounded wait queue
// sheds over-capacity work (ErrOverloaded) and deadline-doomed work
// (ErrShed) before any geometry runs, each admitted query runs on its
// caller's goroutine, per-query wall-clock budgets
// ride the context plumbing, and per-(algorithm, dimension) circuit
// breakers route repeated numerical degradations straight to the Cube
// fallback until a cooldown probe succeeds. Default queries are
// answered in O(k) from a StoredList prefix each epoch grows on
// demand, bit-identical to Dataset.Query. Index snapshots persist
// crash-safely (SaveFile/LoadFile: atomic rename + fsync + CRC-32C
// trailer, damage surfacing as ErrCorruptIndex), and an Engine built
// with WithSnapshot loads its list from one, falling back from a
// corrupt snapshot to a rebuild. See DESIGN.md §10 for the serving
// model.
//
// # Parallelism
//
// There is no width setting. Dataset passes (skyline, happy points,
// evaluators, index builds) fan out over GOMAXPROCS goroutines, and
// an Engine runs each live query max(1, GOMAXPROCS / workers) wide, so
// a saturated pool does not oversubscribe the machine. Answers are
// byte-identical at every width (DESIGN.md §11).
//
// See the examples directory for complete programs and DESIGN.md for
// the geometry behind the implementation.
package kregret

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
	"repro/internal/wal"
)

// Point is one tuple: its coordinates on the d attributes, larger
// preferred on each.
type Point []float64

// Errors returned by the public API.
var (
	ErrNoPoints = errors.New("kregret: dataset has no points")
	ErrBadK     = errors.New("kregret: k must be at least 1")
)

// NumericalError reports that the geometry core failed numerically —
// a NaN critical ratio, a degenerate dual polytope, a cycling simplex
// tableau, or a recovered panic — while answering a query. It carries
// enough context to reproduce the failure. When the degradation chain
// is enabled (the default) a NumericalError surfaces only after every
// fallback stage failed too; Unwrap then yields the joined per-stage
// errors.
type NumericalError struct {
	// Op names the public operation that failed ("Query",
	// "EvaluateMRR", "BuildIndex", …) or, for a panic while filling a
	// per-epoch cache, that cache ("skyline", "happy checker", "happy
	// points", "convex points", "evaluation index").
	Op string
	// Algorithm, K, Candidates and NumCandidates describe the solver
	// run that failed: the query configuration and the size of the
	// candidate set the solver ran on. K is 0, and the other fields
	// are zero too, when the failure happened outside a solver run.
	Algorithm     Algorithm
	K             int
	Candidates    CandidateSet
	NumCandidates int
	// PanicValue holds the recovered panic value when the failure was
	// a panic in the geometry core, nil otherwise.
	PanicValue any
	// Err is the underlying error (nil for a bare recovered panic).
	Err error
}

func (e *NumericalError) Error() string {
	head := "kregret: " + e.Op
	if e.K > 0 {
		head = fmt.Sprintf("%s with %v (k=%d, %d %v candidates)",
			head, e.Algorithm, e.K, e.NumCandidates, e.Candidates)
	}
	switch {
	case e.PanicValue != nil:
		return fmt.Sprintf("%s panicked: %v", head, e.PanicValue)
	case e.Err != nil:
		return fmt.Sprintf("%s failed numerically: %v", head, e.Err)
	}
	return head + " failed numerically"
}

// Unwrap exposes the underlying error chain for errors.Is/As.
func (e *NumericalError) Unwrap() error { return e.Err }

// Algorithm selects which solver answers a query.
type Algorithm int

// Available algorithms.
const (
	// AlgoGeoGreedy is the paper's geometric greedy (default).
	AlgoGeoGreedy Algorithm = iota
	// AlgoGreedy is the LP-based baseline of Nanongkai et al. —
	// same answers, much slower; exists for benchmarking.
	AlgoGreedy
	// AlgoCube is the non-adaptive CUBE baseline of Nanongkai et al.:
	// essentially free to compute, provable (d−1)/(t+d−1) regret
	// bound, but much worse answers in practice.
	AlgoCube
)

func (a Algorithm) String() string {
	switch a {
	case AlgoGeoGreedy:
		return "GeoGreedy"
	case AlgoGreedy:
		return "Greedy"
	case AlgoCube:
		return "Cube"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// CandidateSet selects which filtered subset of the data the solver
// searches.
type CandidateSet int

// Available candidate sets.
const (
	// CandidatesHappy restricts the search to happy points — the
	// paper's contribution, optimal by its Lemma 2 and the smallest
	// of the three sets (default).
	CandidatesHappy CandidateSet = iota
	// CandidatesSkyline restricts to skyline points, the candidate
	// set of all pre-2014 work.
	CandidatesSkyline
	// CandidatesAll searches the raw dataset.
	CandidatesAll
)

func (c CandidateSet) String() string {
	switch c {
	case CandidatesHappy:
		return "happy"
	case CandidatesSkyline:
		return "skyline"
	case CandidatesAll:
		return "all"
	}
	return fmt.Sprintf("CandidateSet(%d)", int(c))
}

// Option customizes NewDataset or Query.
type Option func(*options)

type options struct {
	normalize  bool
	algorithm  Algorithm
	candidates CandidateSet
	fallback   bool
	walPath    string
	walSnap    string
	syncEvery  int
}

// resolveOptions applies opts over the defaults. A call without
// options returns before o is declared: each Option is called through
// a function value, so f(&o) moves o to the heap, and only a call that
// passes an option pays for it.
func resolveOptions(opts []Option) options {
	defaults := options{normalize: true, algorithm: AlgoGeoGreedy, candidates: CandidatesHappy, fallback: true}
	if len(opts) == 0 {
		return defaults
	}
	o := defaults
	for _, f := range opts {
		f(&o)
	}
	return o
}

// WithoutNormalization makes NewDataset keep coordinates as given.
// The data must then already be strictly positive; the paper's
// max-per-dimension-equals-one convention is recommended but not
// required.
func WithoutNormalization() Option { return func(o *options) { o.normalize = false } }

// WithAlgorithm selects the query solver.
func WithAlgorithm(a Algorithm) Option { return func(o *options) { o.algorithm = a } }

// WithCandidates selects the candidate set the solver searches.
func WithCandidates(c CandidateSet) Option { return func(o *options) { o.candidates = c } }

// WithoutFallback disables the degradation chain: a numerical failure
// of the configured algorithm surfaces as a *NumericalError instead
// of being retried with perturbed candidates and weaker algorithms.
// Use it when a degraded answer is worse than no answer (e.g. when
// measuring the algorithms themselves).
func WithoutFallback() Option { return func(o *options) { o.fallback = false } }

// Dataset is a collection of tuples prepared for k-regret queries.
// Reads are served from an immutable epoch: the points plus their
// lazily computed candidate sets (skyline, happy, hull) and evaluation
// index, each filled at most once (see fillOnce), so a Dataset is safe
// for concurrent use by multiple goroutines from the moment NewDataset
// returns — concurrent first calls simply share one computation.
//
// Insert and Delete never change a published epoch: each publishes a
// fresh epoch atomically, so readers that started earlier keep
// computing on the epoch they loaded and never observe a half-applied
// mutation. Insert writes only an array slot no published epoch can
// reach (DESIGN.md §12).
// With WithWAL, every mutation is appended to a write-ahead log (and
// fsynced) before it is applied, and Recover rebuilds the exact
// pre-crash state from the last snapshot plus the log.
type Dataset struct {
	// state is the current epoch. Readers load it once per operation
	// (see snap) and do all their work against that one epoch.
	state atomic.Pointer[dsState]

	// muMut serializes mutations: WAL append order, sequence numbers
	// and epoch publication all agree because only one mutation is in
	// flight at a time.
	muMut     sync.Mutex
	wal       *wal.Log // nil without WithWAL
	walSnap   string   // dataset snapshot path for Compact
	snapSize  int64    // bytes of the base snapshot the log extends
	walClosed bool     // Close was called; mutations return ErrClosed
	// walStale is set when a WAL append, sync or reset failed: the log
	// may lack acknowledged mutations or refuse appends, so the next
	// mutation compacts before it appends (logLocked).
	walStale bool
	// owned is the row slab the mutations publish capacity-capped
	// prefixes of, with headroom so Insert can write its row in place;
	// nil until the first mutation copies the epoch's rows into it. Its
	// length is the high-water mark: no epoch ever published a longer
	// prefix of it, so every row from len(owned) on is unseen.
	owned []float64
}

// dsState is one immutable epoch of a Dataset: the points plus every
// lazily computed cache. A published state is never modified again —
// mutations build a new one — and each cache, once filled, stays valid
// for as long as any reader holds the epoch. Each cache is a mutex, a
// done flag and its value fields, filled through fillOnce; the done
// flag also lets the mutation path tell "cache ready" apart from
// "never asked for" without triggering the computation itself — only
// ready caches are folded incrementally into the successor epoch.
type dsState struct {
	// rows are the epoch's points, one pointer-free row-major array
	// (DESIGN.md §12), never written again once published.
	rows geom.Rows
	seq  uint64 // last mutation folded into this epoch
	// id tells this epoch apart from every other the process made
	// (newState), even one with the same seq and length, so an Index
	// names the epoch it describes without pinning its points.
	id uint64

	evalMu   sync.Mutex
	evalDone atomic.Bool
	eval     *core.EvalIndex

	skyMu   sync.Mutex
	skyDone atomic.Bool
	sky     []int

	happyMu   sync.Mutex
	happyDone atomic.Bool
	happy     []int
	cert      *happy.Cert // witness certificate backing the happy set

	// checker decides the happy-point pass one skyline point at a
	// time, memoized; the happy cache's fill is all its decisions.
	checkMu   sync.Mutex
	checkDone atomic.Bool
	checker   *happy.Checker

	convMu   sync.Mutex
	convDone atomic.Bool
	conv     []int

	// prefix is the epoch's view of the default prefix list (see
	// prefix.go): nil until a default Engine query, a snapshot load or
	// a fold from a queried epoch installs one.
	prefix atomic.Pointer[prefixView]
}

// fillOnce fills one per-epoch cache unless it is already filled:
// done is checked, then fill runs under mu inside the panic boundary
// (protect), and done is set only when fill succeeds. Concurrent first
// callers share one successful fill. Unlike sync.Once, a fill that
// fails leaves the cache unfilled, so the next caller recomputes
// instead of reading zero fields: an error is returned as is, and a
// panic comes back as a *NumericalError for op. fill must assign the
// cache's fields only once it cannot fail any more.
func fillOnce(mu *sync.Mutex, done *atomic.Bool, op string, fill func() error) error {
	if done.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	if done.Load() {
		return nil
	}
	if err := protect(op, fill); err != nil {
		return err
	}
	done.Store(true)
	return nil
}

// seedOnce installs a precomputed value into an unfilled cache (set
// assigns its fields) and marks it filled; a filled cache is kept.
func seedOnce(mu *sync.Mutex, done *atomic.Bool, set func()) {
	mu.Lock()
	defer mu.Unlock()
	if !done.Load() {
		set()
		done.Store(true)
	}
}

// snap returns the current epoch. Every public operation loads it
// exactly once and works against that one state, so a concurrent
// mutation can never split a query across two epochs.
func (d *Dataset) snap() *dsState { return d.state.Load() }

// epochIDs numbers the epochs newState makes.
var epochIDs atomic.Uint64

// newState makes the epoch of rows at seq, with an id of its own.
// Every epoch is made here: by a new dataset, an Insert or a Delete.
func newState(rows geom.Rows, seq uint64) *dsState {
	return &dsState{rows: rows, seq: seq, id: epochIDs.Add(1)}
}

// newDatasetFromRows finishes Dataset construction from validated,
// already-normalized rows (shared by NewDataset, Recover and the shard
// view).
func newDatasetFromRows(rows geom.Rows, seq uint64) *Dataset {
	d := &Dataset{}
	d.state.Store(newState(rows, seq))
	return d
}

// NewDataset validates and (by default) normalizes the tuples so
// every attribute maximum is 1 and every coordinate is strictly
// positive, per the paper's conventions. One read pass validates the
// input, then it is copied into a single pointer-free array whose rows
// are the dataset's points (DESIGN.md §12); both passes split over
// GOMAXPROCS goroutines on large inputs. Without normalization
// the points must already be finite and strictly positive; either
// way they need at least one dimension.
func NewDataset(points []Point, opts ...Option) (*Dataset, error) {
	o := resolveOptions(opts)
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	rows, err := dataset.Ingest(points, o.normalize)
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	d := newDatasetFromRows(rows, 0)
	if o.walPath != "" {
		if err := d.attachWAL(o); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// evalIndex lazily builds the epoch's evaluation index, the one
// evaluator every regret the Dataset reports goes through: the epoch's
// rows, read in place, plus the skyline as the extreme set the
// evaluators scan (bit-identical to a full scan,
// DESIGN.md §12). Built once per epoch; concurrent first callers
// share the computation, and the skyline itself is reused from — or
// seeds — the skyline cache, filled under ctx.
func (s *dsState) evalIndex() (*core.EvalIndex, error) {
	return s.evalIndexCtx(context.Background())
}

// evalIndexCtx is evalIndex with the skyline fill under ctx.
func (s *dsState) evalIndexCtx(ctx context.Context) (*core.EvalIndex, error) {
	err := fillOnce(&s.evalMu, &s.evalDone, "evaluation index", func() error {
		x, err := core.NewEvalIndexRows(s.rows)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		sky, err := s.skylineCtx(ctx)
		if err != nil {
			return err
		}
		if err := x.SetExtreme(sky); err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		s.eval = x
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.eval, nil
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return d.snap().rows.Len() }

// Dim returns the number of attributes.
func (d *Dataset) Dim() int { return d.snap().rows.Dim() }

// Point returns the (normalized) coordinates of tuple i.
func (d *Dataset) Point(i int) Point {
	return Point(d.snap().rows.Row(i).Clone())
}

// skyline returns the epoch's cached skyline indices (shared, not
// copied — callers must not modify the slice).
func (s *dsState) skyline() ([]int, error) { return s.skylineCtx(context.Background()) }

// skylineCtx is skyline filling the cache under ctx: a canceled fill
// leaves it unfilled.
func (s *dsState) skylineCtx(ctx context.Context) ([]int, error) {
	err := fillOnce(&s.skyMu, &s.skyDone, "skyline", func() error {
		sky, err := skyline.OfRows(ctx, s.rows)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		s.sky = sky
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.sky, nil
}

// Skyline returns the indices of the skyline tuples (not dominated by
// any other tuple), computed once per epoch and cached; concurrent
// callers share the computation.
func (d *Dataset) Skyline() ([]int, error) {
	sky, err := d.snap().skyline()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), sky...), nil
}

// happyChecker returns the epoch's happy checker over its skyline,
// filling both under ctx.
func (s *dsState) happyChecker(ctx context.Context) (*happy.Checker, error) {
	err := fillOnce(&s.checkMu, &s.checkDone, "happy checker", func() error {
		sky, err := s.skylineCtx(ctx)
		if err != nil {
			return err
		}
		s.checker = happy.NewChecker(s.rows, sky)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.checker, nil
}

// happyPoints returns the epoch's cached happy indices (shared, not
// copied).
func (s *dsState) happyPoints() ([]int, error) { return s.happyPointsCtx(context.Background()) }

// happyPointsCtx is happyPoints filling the cache under ctx, from the
// epoch's checker, so the decisions a checked prefix list asked for
// are not made twice.
func (s *dsState) happyPointsCtx(ctx context.Context) ([]int, error) {
	err := fillOnce(&s.happyMu, &s.happyDone, "happy points", func() error {
		chk, err := s.happyChecker(ctx)
		if err != nil {
			return err
		}
		cert, err := chk.Cert(ctx, 0)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		s.cert, s.happy = cert, cert.HappyPoints()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.happy, nil
}

// HappyPoints returns the indices of the happy tuples — the paper's
// candidate set, a subset of the skyline that still contains an
// optimal answer for every k (Lemma 2) — computed once per epoch and
// cached; concurrent callers share the computation.
func (d *Dataset) HappyPoints() ([]int, error) {
	h, err := d.snap().happyPoints()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), h...), nil
}

// convexPoints returns the epoch's cached hull-extreme indices
// (shared, not copied).
func (s *dsState) convexPoints() ([]int, error) {
	err := fillOnce(&s.convMu, &s.convDone, "convex points", func() error {
		h, err := s.happyPoints()
		if err != nil {
			return err
		}
		conv, err := core.ConvexAmongHappyRows(s.rows, h)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		s.conv = conv
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.conv, nil
}

// ConvexPoints returns the indices of the tuples that are extreme
// points of the convex hull (D_conv in the paper), computed once per
// epoch and cached; concurrent callers share the computation.
func (d *Dataset) ConvexPoints() ([]int, error) {
	conv, err := d.snap().convexPoints()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), conv...), nil
}

// Answer is the result of a k-regret query.
type Answer struct {
	// Indices of the selected tuples in the original dataset, in
	// selection order.
	Indices []int
	// MRR is the maximum regret ratio of the selection over all
	// linear utility functions, measured against the candidate set
	// the solver ran on. Unsharded, that set (happy points, skyline or
	// every tuple) contains every hull point of the dataset (Lemmas
	// 2–3), so MRR is the regret over the whole dataset. A sharded
	// answer (WithShardedServing) measures it over the merged core
	// instead: the whole-dataset regret exceeds it by at most eps, so
	// MRR can under-report it. Dataset.EvaluateMRR gives the
	// whole-dataset value of any selection.
	MRR float64
	// Algorithm and Candidates record how the answer was produced.
	// After a degraded query, Algorithm is the solver that actually
	// answered, not the one requested.
	Algorithm  Algorithm
	Candidates CandidateSet
	// Degraded reports that the requested solver failed numerically
	// and the answer came from the degradation chain (perturbed
	// retry, then Greedy, then Cube). FallbackReason says which stage
	// answered and why the earlier stages failed.
	Degraded       bool
	FallbackReason string
}

// candidateIndices resolves the configured candidate set to epoch
// indices, filling the caches it reads under ctx.
func (s *dsState) candidateIndices(ctx context.Context, c CandidateSet) ([]int, error) {
	switch c {
	case CandidatesHappy:
		return s.happyPointsCtx(ctx)
	case CandidatesSkyline:
		return s.skylineCtx(ctx)
	case CandidatesAll:
		idx := make([]int, s.rows.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("kregret: unknown candidate set %v", c)
	}
}

// Query answers a k-regret query: at most k tuples minimizing (to
// the greedy heuristic's quality, matching the paper) the maximum
// regret ratio. The default configuration is GeoGreedy over happy
// points; use WithAlgorithm / WithCandidates to change it.
func (d *Dataset) Query(k int, opts ...Option) (*Answer, error) {
	return d.QueryContext(context.Background(), k, opts...)
}

// QueryContext is Query bounded by a context: cancellation and
// deadlines propagate into the geometric hot loops (hull insertions,
// candidate scans, simplex pivot batches), so the call returns an
// error wrapping ctx.Err() shortly after the context ends instead of
// running to completion. An already-expired context returns before
// any work is done.
func (d *Dataset) QueryContext(ctx context.Context, k int, opts ...Option) (*Answer, error) {
	o := resolveOptions(opts)
	ans, _, err := d.queryContext(ctx, k, 0, &o)
	return ans, err
}

// queryContext is QueryContext with resolved options and the solver
// running at the given width (0 = GOMAXPROCS). The Engine passes its
// per-query width here and counts the degradation chain's perturbed
// re-run from the returned record, which is set on failure too.
func (d *Dataset) queryContext(ctx context.Context, k, workers int, o *options) (*Answer, degradation, error) {
	if k < 1 {
		return nil, degradation{}, ErrBadK
	}
	if err := ctx.Err(); err != nil {
		return nil, degradation{}, fmt.Errorf("kregret: query canceled: %w", err)
	}
	st := d.snap()
	cand, err := st.candidateIndices(ctx, o.candidates)
	if err != nil {
		return nil, degradation{}, err
	}
	candPts, err := core.SelectRows(st.rows, cand)
	if err != nil {
		return nil, degradation{}, fmt.Errorf("kregret: %w", err)
	}
	res, deg, err := solveWithFallback(ctx, o, candPts, k, workers)
	if err != nil {
		return nil, deg, err
	}
	return newAnswer(res, deg, cand, o.candidates), deg, nil
}

// newAnswer maps a solver result over candidates cand back to epoch
// indices.
func newAnswer(res *core.Result, deg degradation, cand []int, cs CandidateSet) *Answer {
	ans := &Answer{
		Indices:        make([]int, len(res.Indices)),
		MRR:            res.MRR,
		Algorithm:      deg.algorithm,
		Candidates:     cs,
		Degraded:       deg.degraded,
		FallbackReason: deg.reason,
	}
	for i, ci := range res.Indices {
		ans.Indices[i] = cand[ci]
	}
	return ans
}

// degradation records which solver finally answered and why earlier
// stages failed. retried reports that stage 1, the perturbed re-run,
// ran (kept on failure too), and rescued that it answered.
type degradation struct {
	algorithm        Algorithm
	degraded         bool
	reason           string
	retried, rescued bool
}

// solveWithFallback runs the configured solver behind the panic
// boundary and, when it fails numerically and fallback is enabled,
// walks the degradation chain: one deterministic epsilon-perturbed
// retry of the same solver, then each strictly more robust (and
// strictly weaker or slower) algorithm below it — Greedy, then Cube.
// Cancellation and invalid-input errors are never retried.
func solveWithFallback(ctx context.Context, o *options, candPts []geom.Vector, k, workers int) (*core.Result, degradation, error) {
	res, err := runSolver(ctx, o.algorithm, candPts, k, o.candidates, workers)
	if err == nil {
		return res, degradation{algorithm: o.algorithm}, nil
	}
	if !o.fallback || !retriable(err) {
		return nil, degradation{}, err
	}
	return fallBack(ctx, o, candPts, k, workers, err)
}

// fallBack walks the degradation chain after the configured solver's
// first attempt failed with the retriable error err: a solve, or the
// Engine's prefix-list build that stands in for one.
func fallBack(ctx context.Context, o *options, candPts []geom.Vector, k, workers int, err error) (*core.Result, degradation, error) {
	failures := []error{fmt.Errorf("%v: %w", o.algorithm, err)}
	// Every return below has made the perturbed re-run.
	ranStage1 := degradation{retried: true}

	// Stage 1: same solver over deterministically perturbed
	// candidates — a ~1e-9 relative nudge resolves exact-degeneracy
	// ties (coplanar points, duplicate coordinates) without moving
	// any regret ratio beyond float noise.
	if res, err2 := runSolver(ctx, o.algorithm, perturbed(candPts), k, o.candidates, workers); err2 == nil {
		return res, degradation{
			algorithm: o.algorithm,
			degraded:  true,
			reason:    fmt.Sprintf("%v retried with epsilon perturbation after: %v", o.algorithm, err),
			retried:   true,
			rescued:   true,
		}, nil
	} else if !retriable(err2) {
		return nil, ranStage1, err2
	} else {
		failures = append(failures, fmt.Errorf("%v (perturbed): %w", o.algorithm, err2))
	}

	// Stage 2: progressively cheaper/more robust algorithms. The
	// chain preserves answer semantics (same candidate set, same k)
	// at decreasing answer quality: Greedy reaches the same selection
	// through LPs with no incremental hull state; Cube is non-
	// adaptive arithmetic that cannot fail numerically.
	for _, alg := range fallbackChain(o.algorithm) {
		res, err2 := runSolver(ctx, alg, candPts, k, o.candidates, workers)
		if err2 == nil {
			return res, degradation{
				algorithm: alg,
				degraded:  true,
				reason:    fmt.Sprintf("fell back to %v after: %v", alg, errors.Join(failures...)),
				retried:   true,
			}, nil
		}
		if !retriable(err2) {
			return nil, ranStage1, err2
		}
		failures = append(failures, fmt.Errorf("%v: %w", alg, err2))
	}
	return nil, ranStage1, &NumericalError{
		Op:            "Query",
		Algorithm:     o.algorithm,
		K:             k,
		Candidates:    o.candidates,
		NumCandidates: len(candPts),
		Err:           errors.Join(failures...),
	}
}

// fallbackChain lists the algorithms tried after alg fails, in order.
func fallbackChain(alg Algorithm) []Algorithm {
	switch alg {
	case AlgoGeoGreedy:
		return []Algorithm{AlgoGreedy, AlgoCube}
	case AlgoGreedy:
		return []Algorithm{AlgoCube}
	}
	return nil
}

// retriable reports whether the degradation chain may continue past
// err: numerical failures and recovered panics qualify; cancellation
// and invalid input never do.
func retriable(err error) bool {
	if core.IsNumerical(err) {
		return true
	}
	var ne *NumericalError
	return errors.As(err, &ne) && ne.PanicValue != nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// runSolver executes one solver over the candidate points inside the
// panic boundary: a panic anywhere in the geometry core — including
// one recaptured from a parallel worker goroutine and re-raised here —
// surfaces as a *NumericalError instead of unwinding into the caller's
// goroutine.
func runSolver(ctx context.Context, alg Algorithm, candPts []geom.Vector, k int, cs CandidateSet, workers int) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, solverPanic(r, alg, k, cs, len(candPts))
		}
	}()
	switch alg {
	case AlgoGeoGreedy:
		res, err = core.GeoGreedyParCtx(ctx, candPts, k, workers)
	case AlgoGreedy:
		res, err = core.GreedyParCtx(ctx, candPts, k, workers)
	case AlgoCube:
		res, err = core.CubeCtx(ctx, candPts, k)
	default:
		return nil, fmt.Errorf("kregret: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, fmt.Errorf("kregret: %w", err)
	}
	return res, nil
}

// solverPanic is the *NumericalError of a solver run over n
// candidates that panicked with r.
func solverPanic(r any, alg Algorithm, k int, cs CandidateSet, n int) error {
	return &NumericalError{
		Op:            "Query",
		Algorithm:     alg,
		K:             k,
		Candidates:    cs,
		NumCandidates: n,
		PanicValue:    r,
	}
}

// perturbed returns a copy of pts with every coordinate scaled by
// 1 + ε·h(i,j), where h is a fixed integer hash mapped into [−1, 1]
// and ε = 1e-9. The perturbation is deterministic (retries are
// reproducible), preserves strict positivity and finiteness, and is
// far below every tolerance used by the solvers — it exists only to
// break exact ties that trip degenerate code paths.
func perturbed(pts []geom.Vector) []geom.Vector {
	const eps = 1e-9
	out := make([]geom.Vector, len(pts))
	for i, p := range pts {
		q := make(geom.Vector, len(p))
		for j, x := range p {
			h := float64((i*2654435761+j*40503)%2047-1023) / 1023
			q[j] = x * (1 + eps*h)
		}
		out[i] = q
	}
	return out
}

// protect runs fn inside the panic boundary, converting a panic in
// the geometry core — including one re-raised from a parallel worker —
// into a *NumericalError for the named operation.
func protect(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &NumericalError{Op: op, PanicValue: r}
		}
	}()
	return fn()
}

// EvaluateMRR computes the exact maximum regret ratio of an arbitrary
// selection (dataset indices) over the whole dataset, using the
// paper's Lemma 1.
func (d *Dataset) EvaluateMRR(selection []int) (float64, error) {
	return d.EvaluateMRRContext(context.Background(), selection)
}

// EvaluateMRRContext is EvaluateMRR bounded by a context (see
// QueryContext for the cancellation granularity). The per-point
// support scan fans out over GOMAXPROCS goroutines; the result is
// identical for every width.
func (d *Dataset) EvaluateMRRContext(ctx context.Context, selection []int) (float64, error) {
	x, err := d.snap().evalIndexCtx(ctx)
	if err != nil {
		return 0, err
	}
	var mrr float64
	err = protect("EvaluateMRR", func() error {
		m, err := x.MRRGeometricParCtx(ctx, selection, 0)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		mrr = m
		return nil
	})
	if err != nil {
		return 0, err
	}
	return mrr, nil
}

// RegretOf computes the regret ratio of a selection for one specific
// linear utility function given by its non-negative weight vector.
func (d *Dataset) RegretOf(selection []int, weights Point) (float64, error) {
	if err := d.validateWeights(weights); err != nil {
		return 0, err
	}
	x, err := d.snap().evalIndex()
	if err != nil {
		return 0, err
	}
	var ratio float64
	err = protect("RegretOf", func() error {
		r, err := x.RegretOf(selection, geom.Vector(weights))
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		ratio = r
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ratio, nil
}

// validateWeights rejects weight vectors of the wrong dimension or
// with non-finite components before they reach the geometry core —
// the core's dot products assume validated input and panic on
// dimension mismatches.
func (d *Dataset) validateWeights(weights Point) error {
	if len(weights) != d.Dim() {
		return fmt.Errorf("kregret: utility weights: %w: %d vs %d",
			geom.ErrDimensionMismatch, d.Dim(), len(weights))
	}
	if !geom.Vector(weights).IsFinite() {
		return fmt.Errorf("kregret: utility weights must be finite, got %v", geom.Vector(weights))
	}
	return nil
}

// AverageRegret estimates the mean regret ratio of a selection over
// utility functions drawn uniformly from the non-negative unit
// sphere (a Monte-Carlo extension beyond the paper).
func (d *Dataset) AverageRegret(selection []int, samples int, seed int64) (float64, error) {
	return d.AverageRegretContext(context.Background(), selection, samples, seed)
}

// AverageRegretContext is AverageRegret bounded by a context (see
// QueryContext for the cancellation granularity).
func (d *Dataset) AverageRegretContext(ctx context.Context, selection []int, samples int, seed int64) (float64, error) {
	x, err := d.snap().evalIndexCtx(ctx)
	if err != nil {
		return 0, err
	}
	var avg float64
	err = protect("AverageRegret", func() error {
		_, mean, err := x.SampledRegretParCtx(ctx, selection, samples, seed, 0)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		avg = mean
		return nil
	})
	if err != nil {
		return 0, err
	}
	return avg, nil
}

// WorstUtility returns a linear utility function (unit weight vector)
// achieving the selection's maximum regret ratio, together with the
// dataset index of the witness tuple the user would have preferred.
// Witness is −1 when the regret is zero.
func (d *Dataset) WorstUtility(selection []int) (weights Point, witness int, err error) {
	return d.WorstUtilityContext(context.Background(), selection)
}

// WorstUtilityContext is WorstUtility bounded by a context (see
// QueryContext for the cancellation granularity). The support scan
// fans out over GOMAXPROCS goroutines; the answer is identical for
// every width.
func (d *Dataset) WorstUtilityContext(ctx context.Context, selection []int) (weights Point, witness int, err error) {
	x, err := d.snap().evalIndexCtx(ctx)
	if err != nil {
		return nil, -1, err
	}
	witness = -1
	err = protect("WorstUtility", func() error {
		w, wit, err := x.WorstUtilityParCtx(ctx, selection, 0)
		if err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		weights, witness = Point(w), wit
		return nil
	})
	if err != nil {
		return nil, -1, err
	}
	return weights, witness, nil
}

// Index is the materialized StoredList of the paper's Section IV-B:
// one expensive preprocessing pass, then O(k) per query. It wraps a
// prefix of the default list of one dataset epoch (see prefix.go) and
// records which epoch, so Save refuses a dataset that has moved on
// since, and any other dataset.
type Index struct {
	list  *core.StoredList
	cand  []int
	epoch uint64 // the dsState id
}

// BuildIndex runs the StoredList preprocessing to the end. It grows the
// dataset epoch's default list, the one an Engine over the same epoch
// serves from, so a list the epoch already holds costs nothing; its
// answers are the ones GeoGreedy gives over the happy points. The
// returned Index is immutable and safe for concurrent queries.
func (d *Dataset) BuildIndex() (*Index, error) {
	return d.buildIndex(context.Background(), 0)
}

// BuildIndexContext is BuildIndex bounded by a context: the StoredList
// preprocessing is one full GeoGreedy run and honors cancellation at
// the same granularity as QueryContext.
func (d *Dataset) BuildIndexContext(ctx context.Context) (*Index, error) {
	return d.buildIndex(ctx, 0)
}

// BuildIndexUpTo materializes the index only up to queries of size
// maxK — a fraction of the full preprocessing cost on large frontier
// sets. The Index answers every k ≤ maxK, and more when the epoch's
// list already reaches further; a k beyond the list returns an error
// unless the greedy exhausted the hull earlier (zero regret reached).
func (d *Dataset) BuildIndexUpTo(maxK int) (*Index, error) {
	if maxK < 1 {
		return nil, ErrBadK
	}
	return d.buildIndex(context.Background(), maxK)
}

// BuildIndexUpToContext is BuildIndexUpTo bounded by a context.
func (d *Dataset) BuildIndexUpToContext(ctx context.Context, maxK int) (*Index, error) {
	if maxK < 1 {
		return nil, ErrBadK
	}
	return d.buildIndex(ctx, maxK)
}

// buildIndex grows the epoch's prefix list to cover maxK (to the end
// when maxK is 0) through the cell's single flight and wraps it: the
// one Index builder, behind BuildIndex and the Engine's startup
// rebuild (WithSnapshot).
func (d *Dataset) buildIndex(ctx context.Context, maxK int) (*Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("kregret: index build canceled: %w", err)
	}
	st := d.snap()
	v, err := st.listView(ctx)
	if err != nil {
		return nil, err
	}
	if maxK == 0 {
		maxK = len(v.cand)
	}
	v, l, err := v.grow(ctx, st, maxK, func(candPts []geom.Vector, n int, rely func(int) error) (*core.StoredList, error) {
		return buildList(ctx, candPts, n, rely)
	})
	if err != nil {
		return nil, err
	}
	return &Index{list: l, cand: v.cand, epoch: st.id}, nil
}

// buildList materializes the first n entries of GeoGreedy's order over
// candPts (all of them, and the list is complete, when n ≥
// len(candPts)) inside the BuildIndex panic boundary, telling rely
// (when non-nil) each candidate the list relies on.
func buildList(ctx context.Context, candPts []geom.Vector, n int, rely func(int) error) (*core.StoredList, error) {
	var list *core.StoredList
	err := protect("BuildIndex", func() error {
		var err error
		if list, err = core.BuildStoredListUpToParCtx(ctx, candPts, n, 0, rely); err != nil {
			return fmt.Errorf("kregret: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return list, nil
}

// Query answers a k-regret query from the materialized list. The
// answer equals Dataset.Query with GeoGreedy over happy points.
func (x *Index) Query(k int) (*Answer, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	return listAnswer(x.list, x.cand, k)
}

// Len returns the materialized list length (the k beyond which every
// answer has zero regret).
func (x *Index) Len() int { return x.list.Len() }

// MinSize answers the min-size dual query: the smallest k such that
// Query(k) has maximum regret ratio at most eps. The second return
// value is false when even the full index exceeds eps (only possible
// for partially materialized indexes built with BuildIndexUpTo) or
// eps is NaN.
func (x *Index) MinSize(eps float64) (int, bool) {
	return x.list.MinK(eps)
}
