// Package fault is the fault-injection layer of the query pipeline,
// compiled in only under the `kregretfault` build tag:
//
//	go test -tags kregretfault ./...
//
// Without the tag every hook is an empty stub and Enabled is a false
// constant, so guarded call sites such as
//
//	if fault.Enabled {
//		val = fault.NaN(fault.SiteGeoGreedySupport, val)
//	}
//
// compile to nothing in release builds. With the tag, tests arm a
// named site (Arm, ArmSleep) and the next executions of that site
// misbehave in a controlled way: a support value becomes NaN, the
// simplex solver reports its iteration cap, the double-description
// step reports degeneracy, or a pivot batch stalls. This is how the
// degradation chain (GeoGreedy → perturbed retry → Greedy → Cube) and
// every cancellation point are proven to fire without hunting for a
// naturally pathological input.
//
// The site names below are the complete set of injection points; they
// are referenced from internal/core, internal/lp and internal/dd.
package fault

// Injection site names. Each constant is used at exactly one place in
// the pipeline; tests reference sites only through these constants so
// renames stay mechanical.
const (
	// SiteGeoGreedySupport corrupts the dual support value GeoGreedy
	// caches for a candidate, producing a NaN critical ratio.
	SiteGeoGreedySupport = "core.geogreedy.support"

	// SiteDDAddHalfspace makes the next dd.Polytope.AddHalfspace
	// report ErrEmpty, i.e. a numerically empty polytope — the dd
	// degeneracy case of the fallback chain.
	SiteDDAddHalfspace = "dd.add-halfspace"

	// SiteLPIterationCap makes the next lp.Solver solve report
	// ErrIterationCap as if the simplex had cycled past its pivot
	// budget.
	SiteLPIterationCap = "lp.iteration-cap"

	// SiteLPSlowPivot stalls every simplex pivot batch for the armed
	// duration, turning the LP solver into a slow loop so cancellation
	// checks can be observed mid-solve.
	SiteLPSlowPivot = "lp.slow-pivot"

	// SiteGeoGreedyPanic panics inside the geometry core on the next
	// GeoGreedy iteration, exercising the public panic boundary.
	SiteGeoGreedyPanic = "core.geogreedy.panic"

	// SiteServeQueueFull makes the next serve.Pool admission behave as
	// if the wait queue were full, forcing the ErrOverloaded path
	// without actually saturating the pool.
	SiteServeQueueFull = "serve.queue-full"

	// SiteServeBreakerTrip forces the next serve.Breaker.Allow to trip
	// the breaker open, so the open → half-open → closed cycle can be
	// driven without a storm of real numerical failures.
	SiteServeBreakerTrip = "serve.breaker-trip"

	// SitePersistTornWrite truncates the snapshot file after
	// Index.SaveFile renames it into place, simulating a crash that
	// tore the write — the corruption LoadFile must detect as
	// ErrCorruptIndex.
	SitePersistTornWrite = "persist.torn-write"

	// SiteParallelWorker panics inside a parallel.For worker goroutine
	// before it runs its claimed chunk, proving the fan-out recaptures
	// worker panics and re-raises them on the caller's goroutine where
	// the public panic boundary converts them to *NumericalError.
	SiteParallelWorker = "parallel.worker"

	// SiteWALAppend crashes the next wal.Log.Append mid-record: only a
	// prefix of the frame reaches the file (the torn tail recovery must
	// truncate away) and the log is left unusable, exactly as if the
	// process died inside the write syscall.
	SiteWALAppend = "wal.append"

	// SiteWALSync makes the next wal.Log sync report failure; the log
	// undoes the unsynced suffix so a mutation whose append was never
	// acknowledged leaves no trace on disk.
	SiteWALSync = "wal.sync"

	// SiteWALRotate makes the next wal.Log.Reset (the truncation half
	// of compaction) fail after the compacted snapshot was already
	// published — the crash window where stale records must be skipped
	// by their sequence numbers on replay.
	SiteWALRotate = "wal.rotate"

	// SitePersistSync makes the next snapshot temp-file fsync in
	// SaveFile report failure, proving a failed sync removes the temp
	// file and leaves the previous snapshot loadable.
	SitePersistSync = "persist.sync"

	// SiteCoresetBuild makes the next ε-kernel coreset construction
	// report numerical degeneracy, proving callers fall back to the
	// full candidate set instead of serving from a broken core.
	SiteCoresetBuild = "coreset.build"

	// SiteShardMerge fails the next sharded partition–merge fold after
	// the per-shard cores were computed, proving the engine falls back
	// to the unsharded serving path and records the fallback.
	SiteShardMerge = "shard.merge"
)
