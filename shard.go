package kregret

// Sharded partition–merge serving: the engine-level scale layer
// (DESIGN.md §17). The dataset is partitioned into S contiguous
// shards; each shard runs the ε-dominance cover with half the budget
// (skyline.EpsCover — for eps = 0, its exact skyline), the survivor
// unions are merged, and one ε-kernel build with the other half of
// the budget produces the core that queries run GeoGreedy on.
// Correctness rests on three facts:
//
//   - every shard point is within (1−eps/2) of a shard survivor, and
//     the cover property composes over unions: the merged survivors
//     are an (eps/2)-kernel superset of D (with eps = 0, survivors
//     are exactly ∪ skyline(Dᵢ) ⊇ skyline(D));
//   - the kernel tightening over the survivors spends the other half:
//     (1−eps/2)·(1−eps/2) ≥ 1−eps, so the merged core is an ε-kernel
//     of D and any selection's true regret exceeds its reported value
//     by at most eps;
//   - with eps = 0 the union pass reduces to skyline(D) → happy(D) —
//     the unsharded candidate set — so every S is exact and S = 1 is
//     byte-identical to the unsharded path (proved by the
//     differential suite in shard_test.go).
//
// A failed shard build never fails the engine: it falls back to the
// unsharded serving path and counts the fallback in Stats.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/fault"
	"repro/internal/happy"
	"repro/internal/parallel"
	"repro/internal/skyline"
)

// WithShardedServing makes the engine serve happy-point queries from a
// sharded partition–merge core: the dataset is split into `shards`
// contiguous partitions, each reduced by an ε-dominance cover pass (in
// parallel across shards), and an ε-kernel built over the merged
// survivors becomes the serving set queries run against. The engine's
// build cost drops from one global exact preprocessing pass to S
// linear cover passes plus exact work on a survivor set whose size
// depends on eps and the hull geometry instead of n — the path to
// datasets far beyond a single preprocessing pass.
//
// Answers are approximate within eps: a selection's true regret over
// the full dataset exceeds the reported value by at most eps (the
// per-shard kernel bound composes over the union). eps = 0 keeps
// answers exact — the merged core then contains every happy point —
// and shards = 1 with eps = 0 is byte-identical to the unsharded
// engine. Only default-candidate (happy) queries use the core;
// CandidatesSkyline and CandidatesAll run on the full dataset.
//
// shards is clamped to the dataset size (S > n degenerates to
// one-point shards). If a shard build fails — numerically or via
// fault injection — the epoch serves unsharded and the fallback is
// counted in Stats().ShardFallbacks; sharding is retried at the next
// fold. Invalid configuration (shards < 1, eps outside [0, 1)) fails
// NewEngine.
func WithShardedServing(shards int, eps float64) EngineOption {
	return func(o *engineOptions) {
		o.shards = shards
		o.shardEps = eps
		o.sharded = true
	}
}

// validateSharding rejects an impossible shard plan at NewEngine time.
func (o *engineOptions) validateSharding() error {
	if !o.sharded {
		return nil
	}
	if o.shards < 1 {
		return fmt.Errorf("kregret: sharded serving needs at least 1 shard, got %d", o.shards)
	}
	if math.IsNaN(o.shardEps) || o.shardEps < 0 || o.shardEps >= 1 {
		return fmt.Errorf("kregret: shard coreset eps must be in [0, 1), got %v", o.shardEps)
	}
	return nil
}

// shardEpoch attaches the sharded serving view to a freshly built
// epoch: the merged per-shard core as a Dataset plus the core→global
// index map. On a build failure the epoch is left unsharded (queries
// fall back to the full dataset) and the fallback is counted — a
// broken core must degrade capacity, not correctness.
func (e *Engine) shardEpoch(ctx context.Context, ep *engineEpoch) {
	if !e.opts.sharded {
		return
	}
	start := time.Now()
	serveDS, coreMap, shards, err := buildShardView(ctx, ep.ds, e.opts.shards, e.opts.shardEps)
	if err != nil {
		e.shardFallbacks.Add(1)
		return
	}
	ep.serveDS, ep.coreMap, ep.shards = serveDS, coreMap, shards
	ep.coresetBuild = time.Since(start)
}

// buildShardView partitions the epoch's points into contiguous shards,
// reduces each shard with the ε-dominance cover (shards fan out over
// GOMAXPROCS goroutines), and runs the exact kernel machinery only
// on the merged survivor union. The ε budget is split evenly: each
// shard's cover keeps every shard point within (1−eps/2) of a
// survivor, and the kernel tightening on the union spends the other
// half, so (1−eps/2)² ≥ 1−eps bounds the merged core against the full
// dataset. With eps = 0 the cover IS the exact per-shard skyline, the
// union collapses to skyline(D) (skyline of a union of shard skylines)
// and the candidate set to happy(D) — the unsharded candidate set,
// which is what keeps S=1 byte-identical and every S exact.
//
// The returned index map translates serving-dataset indices back to
// the full dataset; the returned shard count is the effective one
// after clamping to n.
func buildShardView(ctx context.Context, ds *Dataset, shards int, eps float64) (*Dataset, []int, int, error) {
	st := ds.snap()
	n := len(st.pts)
	if shards > n {
		shards = n
	}
	outs := make([][]int, shards)
	err := parallel.For(ctx, shards, 0, 1, func(start, end int) error {
		for s := start; s < end; s++ {
			lo, hi := s*n/shards, (s+1)*n/shards
			if lo >= hi {
				continue // degenerate empty shard: contributes nothing
			}
			surv, err := skyline.EpsCover(st.pts, lo, hi, eps/2)
			if err != nil {
				return fmt.Errorf("kregret: shard %d cover: %w", s, err)
			}
			outs[s] = surv
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if fault.Enabled {
		if err := fault.Err(fault.SiteShardMerge); err != nil {
			return nil, nil, 0, fmt.Errorf("kregret: shard merge: %w", err)
		}
	}
	merged := mergeShardCores(outs)
	cand := merged
	kernelEps := eps / 2
	if eps == 0 { //kregret:allow floatcmp: exact-plan sentinel, a configured value, not arithmetic
		// Exact plan: per-shard covers are exact skylines, so one more
		// exact pass over the union yields skyline(D) and the happy
		// points among it — precisely the unsharded candidate set.
		sky, err := skyline.OfSubset(st.pts, merged)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("kregret: shard union skyline: %w", err)
		}
		cand = happy.ComputeAmongSkylineCertParallel(st.pts, sky, 0).HappyPoints()
	}
	coreIdx, _, err := coreset.Build(ctx, st.pts, cand, kernelEps, 0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("kregret: merged coreset: %w", err)
	}
	pts, err := core.Select(st.pts, coreIdx)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("kregret: shard merge: %w", err)
	}
	serveDS := newDatasetFromVectors(pts, st.seq)
	return serveDS, coreIdx, shards, nil
}

// mergeShardCores unions per-shard core index lists. Shard ranges are
// disjoint and ascending and each list is ascending within its range,
// so concatenation is already sorted; empty and nil shards vanish.
func mergeShardCores(outs [][]int) []int {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	merged := make([]int, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged
}
