// Package chaos is the seeded fault-schedule soak harness for the
// serving engine. A Schedule — generated deterministically from a
// single int64 seed — pairs a randomized combination of
// internal/fault injection sites (each armed on an independent
// probabilistic trigger) with per-client request scripts mixing
// healthy, short-deadline, pre-canceled, fallback-disabled,
// Greedy-skewed and durable-mutation traffic. The tagged half of
// the package (soak.go, build tag kregretfault) drives a
// kregret.Engine with the schedule and checks six global invariants:
//
//  1. request conservation — every issued request is answered, shed
//     or canceled, none lost, and the pool counters balance exactly;
//  2. breaker convergence — every breaker that tripped during the
//     storm recloses (trip → half-open → closed) once the faults are
//     disarmed;
//  3. corrupt-snapshot recovery — the engine rebuilds a snapshot it
//     finds torn and serves from the rebuilt index;
//  4. leak-free shutdown — the goroutine count returns to its
//     pre-engine baseline after drain;
//  5. answer fidelity — every non-degraded response is byte-identical
//     (indices and math.Float64bits of the regret ratio) to the
//     fault-free control answer for its request shape, even as
//     mutation traffic swaps serving epochs underneath the readers;
//  6. durable recovery — after the drain, Recover over the on-disk
//     (snapshot, WAL) pair reproduces the final acknowledged
//     in-memory dataset bit-for-bit, torn appends and injected fsync
//     and compaction failures included.
//
// Everything is a pure function of the seed, so any failing soak run
// is replayed exactly with
//
//	go test -race -tags kregretfault ./internal/chaos \
//	    -chaos.seed <seed> -chaos.runs 1
package chaos

import (
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/fault"
)

// RequestClass labels the traffic mix of a soak run. Each class pins
// a distinct (algorithm, candidate set, context) shape so the storm
// exercises the index fast path, the live solvers, the degradation
// chain and both admission shed paths at once.
type RequestClass int

const (
	// ClassHealthy is a default-option query: served from the
	// epoch's prefix list in O(k), immune to solver faults.
	ClassHealthy RequestClass = iota
	// ClassHealthyLive forces the live GeoGreedy solver over skyline
	// candidates, bypassing the index so solver faults land on it.
	ClassHealthyLive
	// ClassNoFallback disables the degradation chain: injected
	// numerical faults surface to the caller as errors instead of
	// degraded answers.
	ClassNoFallback
	// ClassSkewed routes to the Greedy solver, concentrating load on
	// the engine's second breaker, Greedy's, so per-algorithm
	// isolation is visible.
	ClassSkewed
	// ClassShortDeadline runs the live solver under a deadline of a
	// few milliseconds — the shed-at-dequeue, mid-solve cancellation
	// and watchdog paths.
	ClassShortDeadline
	// ClassPreCanceled arrives already canceled and must be shed at
	// admission without touching a solver.
	ClassPreCanceled
	// ClassMutation is a durable write: Engine.Apply inserting a
	// strictly-dominated point. Dominated inserts never change any
	// candidate set, so every other class's control answer stays
	// byte-identical across the folds — mutation traffic is free to
	// interleave with the answer-fidelity invariant. Deletes are
	// excluded for the same reason: shifting indices would invalidate
	// the controls. Every fourth mutation also compacts the dataset:
	// the soak's log never outgrows its small base snapshot, so no
	// fold would compact, and the compaction faults would never fire.
	ClassMutation

	numClasses = 7
)

// FaultArm describes one probabilistic injection: Site fires on each
// execution with probability P, drawn from a per-site deterministic
// stream seeded by Seed. A non-zero Sleep stalls the site instead of
// failing it (only meaningful for duration sites like lp.slow-pivot).
type FaultArm struct {
	Site  string
	P     float64
	Sleep time.Duration
	Seed  int64
}

// Request is one scripted query.
type Request struct {
	Class RequestClass
	K     int
	// Timeout overrides the engine's default query budget when > 0
	// (used by ClassShortDeadline).
	Timeout time.Duration
}

// Schedule is a fully deterministic soak plan: which sites are armed
// (and how hard), and what every client will send.
type Schedule struct {
	Seed     int64
	Faults   []FaultArm
	Requests [][]Request // one script per client
}

// durabilitySites is the storm's durability catalog: the injection
// points of the write path behind ClassMutation.
var durabilitySites = []string{fault.SiteWALAppend, fault.SiteWALSync, fault.SiteWALRotate, fault.SitePersistSync}

// siteSeed derives the per-site RNG seed: the schedule seed folded
// with an FNV-1a hash of the site name, so two sites armed by the
// same schedule fire on independent streams and a replay re-arms each
// site identically.
func siteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	//kregret:allow errdrop: hash.Hash.Write is documented to never return an error
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}

// Generate builds the schedule for one soak run: clients scripts of
// perClient requests each, plus a randomized arming of the fault
// catalog. Two calls with the same arguments return identical
// schedules.
func Generate(seed int64, clients, perClient int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed}

	// Error-injecting sites: each joins the storm with probability
	// 1/2, firing per execution at a rate drawn from [0.05, 0.35).
	for _, site := range []string{
		fault.SiteGeoGreedySupport,
		fault.SiteDDAddHalfspace,
		fault.SiteLPIterationCap,
		fault.SiteGeoGreedyPanic,
		fault.SiteParallelWorker,
	} {
		if rng.Intn(2) == 0 {
			continue
		}
		s.Faults = append(s.Faults, FaultArm{
			Site: site,
			P:    0.05 + 0.30*rng.Float64(),
			Seed: siteSeed(seed, site),
		})
	}
	// Admission-layer sites fire rarely — they shed whole requests,
	// and a high rate would starve the solver paths of traffic.
	for _, site := range []string{fault.SiteServeQueueFull, fault.SiteServeBreakerTrip} {
		if rng.Intn(2) == 0 {
			continue
		}
		s.Faults = append(s.Faults, FaultArm{
			Site: site,
			P:    0.02 + 0.08*rng.Float64(),
			Seed: siteSeed(seed, site),
		})
	}
	// Durability sites fire rarely too: a torn WAL append, an injected
	// WAL fsync, compaction or snapshot-fsync failure must surface as a
	// clean mutation error (the soak's recovery invariant proves no
	// torn acknowledged state), and mutation traffic is itself a small
	// slice of the mix. A torn append leaves the log unusable until
	// the next mutation's compaction heals it.
	for _, site := range durabilitySites {
		if rng.Intn(2) == 0 {
			continue
		}
		s.Faults = append(s.Faults, FaultArm{
			Site: site,
			P:    0.02 + 0.08*rng.Float64(),
			Seed: siteSeed(seed, site),
		})
	}
	// The slow-pivot stall turns the LP into a sluggish loop; kept to
	// low-millisecond stalls so a soak run stays short while still
	// overshooting the short-deadline class's budget.
	if rng.Intn(2) == 1 {
		s.Faults = append(s.Faults, FaultArm{
			Site:  fault.SiteLPSlowPivot,
			P:     0.10 + 0.20*rng.Float64(),
			Sleep: 200*time.Microsecond + time.Duration(rng.Int63n(int64(2*time.Millisecond))),
			Seed:  siteSeed(seed, fault.SiteLPSlowPivot),
		})
	}
	// A storm with nothing armed is a control run, not a chaos run.
	if len(s.Faults) == 0 {
		s.Faults = append(s.Faults, FaultArm{
			Site: fault.SiteGeoGreedySupport,
			P:    0.20,
			Seed: siteSeed(seed, fault.SiteGeoGreedySupport),
		})
	}

	// Client scripts: a weighted class mix, k in [1, 4].
	for c := 0; c < clients; c++ {
		script := make([]Request, perClient)
		for i := range script {
			req := Request{K: 1 + rng.Intn(4)}
			switch p := rng.Float64(); {
			case p < 0.24:
				req.Class = ClassHealthy
			case p < 0.43:
				req.Class = ClassHealthyLive
			case p < 0.61:
				req.Class = ClassNoFallback
			case p < 0.76:
				req.Class = ClassSkewed
			case p < 0.86:
				req.Class = ClassShortDeadline
				req.Timeout = time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
			case p < 0.93:
				req.Class = ClassMutation
			default:
				req.Class = ClassPreCanceled
			}
			script[i] = req
		}
		s.Requests = append(s.Requests, script)
	}
	return s
}
