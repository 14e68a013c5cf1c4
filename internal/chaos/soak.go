//go:build kregretfault

package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	kregret "repro"
	"repro/internal/core"
	"repro/internal/fault"
)

// Config shapes one soak run. Everything observable is derived from
// Seed; Duration only bounds wall-clock (every client always finishes
// at least one full pass of its script, so short durations do not
// silently skip coverage).
type Config struct {
	Seed     int64
	Duration time.Duration
	// Clients and PerClient size the schedule; zero values default to
	// 6 clients × 40 requests.
	Clients, PerClient int
	// Dir holds the snapshot file; it is seeded with garbage bytes so
	// every run exercises the corrupt-snapshot rebuild path.
	Dir string
}

// Report summarizes a soak run's observed outcomes.
type Report struct {
	Seed      int64
	Issued    uint64
	OK        uint64 // non-degraded answers, byte-checked against control
	Degraded  uint64
	Shed      uint64 // ErrShed + ErrOverloaded + ErrShuttingDown
	Canceled  uint64 // context errors surfaced to the client
	Numerical uint64 // fallback-disabled numerical failures
	Mutations uint64 // durable inserts applied through Engine.Apply
	// MutationsFailed counts Apply errors other than shutdown — a torn
	// append or an injected WAL fsync or compaction failure. Each is
	// individually harmless (the mutation was cleanly rejected or
	// applied with its persistence deferred); invariant 6 proves so
	// collectively.
	MutationsFailed uint64
	// Fired counts, per armed fault site, the executions it failed
	// during the storm.
	Fired map[string]int
	Stats kregret.EngineStats
}

// outcome counters shared by the soak clients.
type tally struct {
	issued, ok, degraded, shed, canceled, numerical atomic.Uint64
	mutations, mutationsFailed                      atomic.Uint64
	mutationReqs                                    atomic.Uint64
}

// violation collection: the soak never fails fast — it records every
// invariant breach and reports them joined, so one bad seed yields
// the full picture in a single run.
type violations struct {
	mu   sync.Mutex
	errs []error
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.errs) < 32 {
		v.errs = append(v.errs, fmt.Errorf(format, args...))
	}
}

func (v *violations) join() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return errors.Join(v.errs...)
}

// profile returns the query options of a request class. Classes that
// differ only in context handling (short deadlines, pre-canceled)
// reuse a solver profile, so their control answers exist too.
func profile(c RequestClass) []kregret.Option {
	switch c {
	case ClassHealthyLive, ClassShortDeadline:
		return []kregret.Option{kregret.WithCandidates(kregret.CandidatesSkyline)}
	case ClassNoFallback:
		return []kregret.Option{kregret.WithCandidates(kregret.CandidatesSkyline), kregret.WithoutFallback()}
	case ClassSkewed:
		return []kregret.Option{kregret.WithAlgorithm(kregret.AlgoGreedy)}
	default: // ClassHealthy, ClassPreCanceled: engine defaults (index path)
		return nil
	}
}

// sameAnswer is the byte-identity check of invariant 5: identical
// selection in identical order and bit-identical regret ratio. The
// bit comparison (not ==) is deliberate — it is exact, NaN-safe and
// analyzer-clean.
func sameAnswer(a, b *kregret.Answer) bool {
	if len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	return math.Float64bits(a.MRR) == math.Float64bits(b.MRR)
}

// waitCtx pauses for d or until ctx ends — the ctx-aware wait shape
// used by every polling loop below (the sleepctx discipline).
func waitCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// soakPoints builds the deterministic dataset of a run: n points on a
// jittered simplex slice, the same shape the engine test corpus uses,
// so every class of query has a non-trivial skyline to chew on.
func soakPoints(seed int64, n, d int) []kregret.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]kregret.Point, n)
	for i := range pts {
		p := make(kregret.Point, d)
		var sum float64
		for j := range p {
			p[j] = 0.05 + rng.ExpFloat64()
			sum += p[j]
		}
		for j := range p {
			//kregret:allow naninf: sum adds d ≥ 1 finite terms that are each ≥ 0.05
			p[j] = p[j] / sum * (0.8 + 0.4*rng.Float64())
		}
		pts[i] = p
	}
	return pts
}

// Run executes one seeded soak: corrupt-snapshot startup, fault-free
// control answers, the armed storm under concurrent mixed load,
// disarm, breaker-reclose convergence, drain, and the conservation
// and leak checks. The returned error joins every invariant
// violation; a nil error is a fully clean run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 6
	}
	if cfg.PerClient <= 0 {
		cfg.PerClient = 40
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 250 * time.Millisecond
	}
	fault.Reset()
	defer fault.Reset()
	baseline := runtime.NumGoroutine()
	v := &violations{}

	// The dataset is WAL-backed: mutation traffic must be durable so
	// the post-drain recovery invariant has an on-disk pair to check.
	walPath := filepath.Join(cfg.Dir, "chaos.wal")
	baseSnap := filepath.Join(cfg.Dir, "chaos.base")
	ds, err := kregret.NewDataset(soakPoints(cfg.Seed, 160, 3),
		kregret.WithWAL(walPath, baseSnap))
	if err != nil {
		return nil, fmt.Errorf("chaos: dataset: %w", err)
	}
	// The mutation class inserts this strictly-dominated point (half
	// of tuple 0, already normalized): it can never join a skyline,
	// happy or convex candidate set, so control answers survive every
	// fold untouched.
	mutPt := ds.Point(0)
	for j := range mutPt {
		mutPt[j] *= 0.5
	}

	// Invariant 3 setup: the snapshot the engine finds is garbage; it
	// must detect the corruption, rebuild, and say so.
	snap := filepath.Join(cfg.Dir, "chaos.snap")
	if err := os.WriteFile(snap, []byte("torn snapshot garbage"), 0o644); err != nil {
		return nil, fmt.Errorf("chaos: seeding corrupt snapshot: %w", err)
	}
	eng, err := kregret.NewEngine(ds,
		kregret.WithWorkers(4),
		kregret.WithQueueDepth(8),
		kregret.WithBreaker(3, 40*time.Millisecond),
		kregret.WithWatchdog(5*time.Millisecond),
		kregret.WithQueryTimeout(250*time.Millisecond),
		kregret.WithSnapshot(snap),
	)
	if err != nil {
		return nil, fmt.Errorf("chaos: engine: %w", err)
	}
	if !eng.Stats().SnapshotRebuilt {
		v.addf("invariant 3: corrupt snapshot was not rebuilt")
	}

	// Fault-free control answers, one per (class profile, k) — served
	// through the same engine so invariant 5 compares like with like.
	type ckey struct {
		class RequestClass
		k     int
	}
	control := map[ckey]*kregret.Answer{}
	for class := RequestClass(0); class < numClasses; class++ {
		if class == ClassMutation {
			continue // writes have no control answer
		}
		for k := 1; k <= 4; k++ {
			ans, err := eng.Query(ctx, k, profile(class)...)
			if err != nil {
				return nil, fmt.Errorf("chaos: control query class %d k=%d: %w", class, k, err)
			}
			if ans.Degraded {
				return nil, fmt.Errorf("chaos: control query class %d k=%d degraded before any fault: %s",
					class, k, ans.FallbackReason)
			}
			control[ckey{class, k}] = ans
		}
	}

	// Arm the storm.
	sched := Generate(cfg.Seed, cfg.Clients, cfg.PerClient)
	for _, f := range sched.Faults {
		if f.Sleep > 0 {
			fault.ArmRandSleep(f.Site, f.Seed, f.P, f.Sleep)
		} else {
			fault.ArmRand(f.Site, f.Seed, f.P)
		}
	}

	var tl tally
	var wg sync.WaitGroup
	start := time.Now()
	for c := range sched.Requests {
		wg.Add(1)
		go func(script []Request) {
			defer wg.Done()
			for pass := 0; pass == 0 || time.Since(start) < cfg.Duration; pass++ {
				for _, req := range script {
					issueOne(ctx, eng, ds, req, control[ckey{req.Class, req.K}], mutPt, &tl, v)
				}
			}
		}(sched.Requests[c])
	}
	wg.Wait()
	fired := make(map[string]int, len(sched.Faults))
	for _, f := range sched.Faults {
		fired[f.Site] = fault.Fired(f.Site)
	}

	// Disarm and converge: invariant 2 says every breaker the storm
	// tripped recloses once probes succeed again. Probe each live
	// profile until the breaker map reads all-closed (the 40ms
	// cooldown admits a half-open probe quickly; 5s is generous).
	fault.Reset()
	convergeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for {
		for _, class := range []RequestClass{ClassHealthyLive, ClassSkewed} {
			if ans, err := eng.Query(convergeCtx, 2, profile(class)...); err == nil && !ans.Degraded {
				if want := control[ckey{class, 2}]; !sameAnswer(ans, want) {
					v.addf("invariant 5: post-storm class %d answer diverged: got %v mrr=%x, want %v mrr=%x",
						class, ans.Indices, math.Float64bits(ans.MRR), want.Indices, math.Float64bits(want.MRR))
				}
			}
		}
		open := 0
		for _, state := range eng.Stats().Breakers {
			if state != "closed" {
				open++
			}
		}
		if open == 0 {
			break
		}
		if convergeCtx.Err() != nil {
			v.addf("invariant 2: breakers never reclosed after faults cleared: %v", eng.Stats().Breakers)
			break
		}
		waitCtx(convergeCtx, 5*time.Millisecond)
	}

	// Drain, then settle the books.
	if err := eng.Shutdown(ctx); err != nil {
		v.addf("shutdown: %v", err)
	}
	stats := eng.Stats()
	if got, want := tl.issued.Load(), tl.ok.Load()+tl.degraded.Load()+tl.shed.Load()+tl.canceled.Load()+tl.numerical.Load()+tl.mutations.Load()+tl.mutationsFailed.Load(); got != want {
		v.addf("invariant 1: %d requests issued but only %d classified", got, want)
	}
	// Mutation conservation: the engine's applied counter is exactly
	// the dataset's logical clock — no mutation double-counted, none
	// half-applied.
	if stats.MutationsApplied != ds.Seq() {
		v.addf("invariant 1: engine applied %d mutations but the dataset clock reads %d",
			stats.MutationsApplied, ds.Seq())
	}

	// Invariant 6: recovering from the on-disk pair — without closing
	// the live log, the crash model — reproduces the acknowledged
	// in-memory state bit-for-bit, however many injected fsync or
	// compaction failures the storm landed.
	rec, rerr := kregret.Recover(baseSnap, walPath)
	switch {
	case rerr != nil:
		v.addf("invariant 6: recovery failed: %v", rerr)
	case rec.Len() != ds.Len() || rec.Seq() != ds.Seq():
		v.addf("invariant 6: recovered len/seq %d/%d, in-memory %d/%d",
			rec.Len(), rec.Seq(), ds.Len(), ds.Seq())
	default:
		mismatches := 0
		for i := 0; i < ds.Len() && mismatches < 8; i++ {
			livePt, recPt := ds.Point(i), rec.Point(i)
			for j := range livePt {
				if math.Float64bits(livePt[j]) != math.Float64bits(recPt[j]) {
					v.addf("invariant 6: recovered tuple %d differs at coordinate %d: %x vs %x",
						i, j, math.Float64bits(recPt[j]), math.Float64bits(livePt[j]))
					mismatches++
					break
				}
			}
		}
	}
	if rec != nil {
		if cerr := rec.Close(); cerr != nil {
			v.addf("invariant 6: closing recovered dataset: %v", cerr)
		}
	}
	if cerr := ds.Close(); cerr != nil {
		v.addf("invariant 6: closing live dataset: %v", cerr)
	}
	if stats.Admitted != stats.Completed+stats.Canceled+stats.ShedAtDequeue {
		v.addf("invariant 1: pool counters do not balance: admitted %d != completed %d + canceled %d + shedAtDequeue %d",
			stats.Admitted, stats.Completed, stats.Canceled, stats.ShedAtDequeue)
	}
	if stats.Queued != 0 || stats.InFlight != 0 {
		v.addf("invariant 1: gauges non-zero after drain: queued=%d inflight=%d", stats.Queued, stats.InFlight)
	}

	// Invariant 4: no goroutine outlives the run. The engine starts
	// none (queries run on the clients' goroutines), so this catches
	// leaked clients and timers. The runtime count is noisy, so poll
	// briefly.
	leakCtx, cancelLeak := context.WithTimeout(ctx, 5*time.Second)
	defer cancelLeak()
	for runtime.NumGoroutine() > baseline {
		if !waitCtx(leakCtx, 2*time.Millisecond) {
			v.addf("invariant 4: goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
			break
		}
	}

	rep := &Report{
		Seed:            cfg.Seed,
		Issued:          tl.issued.Load(),
		OK:              tl.ok.Load(),
		Degraded:        tl.degraded.Load(),
		Shed:            tl.shed.Load(),
		Canceled:        tl.canceled.Load(),
		Numerical:       tl.numerical.Load(),
		Mutations:       tl.mutations.Load(),
		MutationsFailed: tl.mutationsFailed.Load(),
		Fired:           fired,
		Stats:           stats,
	}
	return rep, v.join()
}

// issueOne sends one scripted request and classifies its outcome
// against the invariants.
func issueOne(ctx context.Context, eng *kregret.Engine, ds *kregret.Dataset, req Request, want *kregret.Answer, mutPt kregret.Point, tl *tally, v *violations) {
	tl.issued.Add(1)
	if req.Class == ClassMutation {
		// A durable write: the dominated insert folds a new epoch
		// (every other one, per the rebuild threshold) under the
		// readers' feet, and every fourth also compacts the base
		// dataset. Failures beyond shutdown are injected durability
		// faults — tolerated here, settled by invariant 6.
		switch err := eng.Apply(ctx, kregret.InsertMutation(mutPt)); {
		case err == nil:
			tl.mutations.Add(1)
		case errors.Is(err, kregret.ErrShuttingDown):
			tl.shed.Add(1)
		default:
			tl.mutationsFailed.Add(1)
		}
		if tl.mutationReqs.Add(1)%4 == 0 {
			//kregret:allow errdrop: a failed compaction leaves the previous (snapshot, log) pair intact; invariant 6 settles it
			ds.Compact()
		}
		return
	}
	qctx := ctx
	var cancel context.CancelFunc
	switch {
	case req.Class == ClassPreCanceled:
		qctx, cancel = context.WithCancel(ctx)
		cancel()
	case req.Timeout > 0:
		qctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}

	ans, err := eng.Query(qctx, req.K, profile(req.Class)...)
	switch {
	case err == nil && !ans.Degraded:
		tl.ok.Add(1)
		// Invariant 5: a response the engine did not label degraded
		// must be indistinguishable from the fault-free answer.
		if !sameAnswer(ans, want) {
			v.addf("invariant 5: class %d k=%d non-degraded answer diverged: got %v mrr=%x, want %v mrr=%x",
				req.Class, req.K, ans.Indices, math.Float64bits(ans.MRR), want.Indices, math.Float64bits(want.MRR))
		}
	case err == nil:
		tl.degraded.Add(1)
		// Degraded answers may differ from control but must still be
		// well-formed: a k-selection with a sane regret ratio.
		if len(ans.Indices) == 0 || len(ans.Indices) > req.K {
			v.addf("degraded answer has %d indices for k=%d", len(ans.Indices), req.K)
		}
		if !(ans.MRR >= 0 && ans.MRR <= 1) {
			v.addf("degraded answer has regret ratio %v outside [0,1]", ans.MRR)
		}
	case errors.Is(err, kregret.ErrOverloaded),
		errors.Is(err, kregret.ErrShed),
		errors.Is(err, kregret.ErrShuttingDown):
		tl.shed.Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		tl.canceled.Add(1)
	case transientNumerical(err):
		// Legitimate for every class, not only ClassNoFallback: the
		// injected degeneracies also land inside the regret evaluation
		// that Cube shares, so a sustained storm can exhaust the whole
		// fallback chain.
		tl.numerical.Add(1)
	default:
		v.addf("class %d k=%d: unclassifiable outcome: %v", req.Class, req.K, err)
	}
}

// transientNumerical recognizes both error shapes a fallback-disabled
// query can surface: the bare core degeneracy error and the typed
// *kregret.NumericalError a recovered panic produces.
func transientNumerical(err error) bool {
	if core.IsNumerical(err) {
		return true
	}
	var ne *kregret.NumericalError
	return errors.As(err, &ne)
}
