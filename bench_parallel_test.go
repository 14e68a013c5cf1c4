package kregret

// BenchmarkPaper is the baseline suite behind `make bench`: the
// paper-scale hot paths (GeoGreedy at n=100k d=4, the exact and
// sampled evaluators, the candidate preprocessing) with the worker
// count taken from the -kregret.parallelism flag, so one binary
// measures both the sequential path and any fan-out width. The
// entries that go through Dataset or Engine run at GOMAXPROCS, so
// cmd/benchbaseline pairs each pass's flag with the same -cpu width.
// It runs the suite at parallelism 1 and N, diffs ns/op and
// allocs/op, and writes BENCH_<rev>.json.

import (
	"context"
	"flag"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
)

var (
	benchParallelism = flag.Int("kregret.parallelism", 1,
		"worker count for BenchmarkPaper (1 = exact sequential path, 0 = GOMAXPROCS)")
	benchPaperN = flag.Int("kregret.benchn", 100000,
		"dataset size for BenchmarkPaper (lower it for smoke runs)")
)

const benchPaperD = 4

// Sharded cold-query shape: the partition–merge pair is gated on
// total work, not fan-out — the bench box may be a single hardware
// thread — so the shard count stays small (on anti-correlated data
// every extra shard inflates the merged survivor union and with it
// the exact work after the merge) and ε = 0.1 is the usual ten-percent
// regret budget from the paper's experiment grid.
const (
	benchShards   = 2
	benchShardEps = 0.1
)

var (
	paperOnce sync.Once
	paperPts  []geom.Vector
	paperSel  []int
	paperEval *core.EvalIndex
	paperErr  error
)

// paperInstance builds the shared BenchmarkPaper fixture once: the
// anti-correlated instance, a reference selection to evaluate, and a
// skyline-pruned EvalIndex — the evaluation substrate Dataset holds,
// so the evaluator benchmarks measure the library's real serving
// path (flat kernels + extreme-set pruning) rather than a transient
// per-call rebuild.
func paperInstance(b *testing.B) ([]geom.Vector, []int, *core.EvalIndex) {
	b.Helper()
	paperOnce.Do(func() {
		paperPts, paperErr = dataset.AntiCorrelated(*benchPaperN, benchPaperD, 20140331)
		if paperErr != nil {
			return
		}
		var res *core.Result
		res, paperErr = core.GeoGreedyParCtx(context.Background(), paperPts, 20, *benchParallelism)
		if paperErr != nil {
			return
		}
		paperSel = res.Indices
		var sky []int
		sky, paperErr = skyline.ComputeParallel(paperPts, *benchParallelism)
		if paperErr != nil {
			return
		}
		paperEval, paperErr = core.NewEvalIndex(paperPts)
		if paperErr != nil {
			return
		}
		paperErr = paperEval.SetExtreme(sky)
	})
	if paperErr != nil {
		b.Fatal(paperErr)
	}
	return paperPts, paperSel, paperEval
}

func BenchmarkPaper(b *testing.B) {
	ctx := context.Background()
	w := *benchParallelism
	pts, sel, eval := paperInstance(b)

	b.Run("GeoGreedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GeoGreedyParCtx(ctx, pts, 50, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MRRGeometric", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.MRRGeometricParCtx(ctx, sel, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MRRSampled1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.MRRSampledParCtx(ctx, sel, 1000, 1, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MRRSampled1kFull", func(b *testing.B) {
		// The unpruned free-function path: a transient full-scan
		// EvalIndex per call, isolating what the extreme set saves.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MRRSampledParCtx(ctx, pts, sel, 1000, 1, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Preprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sky, err := skyline.ComputeParallel(pts, w)
			if err != nil {
				b.Fatal(err)
			}
			happy.ComputeAmongSkylineCertParallel(pts, sky, w).HappyPoints()
		}
	})
	b.Run("PreprocessFold", func(b *testing.B) {
		// The delta-maintenance counterpart of Preprocess: one
		// insert+delete round-trip on a dataset whose candidate caches
		// are warm, so each mutation patches the cached skyline and
		// happy certificate through the epoch fold (DESIGN.md §16)
		// instead of recomputing them. The reads after each pair are
		// the serving path — they must find the successor epoch
		// pre-seeded. Includes the O(n) copy-on-write point clone, the
		// price of epoch isolation.
		ds, err := NewDataset(vecsToPoints(pts), WithoutNormalization())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ds.Skyline(); err != nil {
			b.Fatal(err)
		}
		if _, err := ds.HappyPoints(); err != nil {
			b.Fatal(err)
		}
		probe := append(Point(nil), pts[0]...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx, err := ds.Insert(probe)
			if err != nil {
				b.Fatal(err)
			}
			if err := ds.Delete(idx); err != nil {
				b.Fatal(err)
			}
			if _, err := ds.Skyline(); err != nil {
				b.Fatal(err)
			}
			if _, err := ds.HappyPoints(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ColdQuery", func(b *testing.B) {
		// End-to-end unsharded baseline for the sharded variant below:
		// build (the full global skyline → happy preprocess from cold
		// caches) plus one k=20 happy-point query. Dataset ingestion is
		// identical on both sides of the pair and untimed — the pair
		// compares the preprocessing strategies, not the shared copy-in
		// (the explicit collection drains the untimed allocation debt so
		// neither side pays the other's garbage inside the timed window).
		ps := vecsToPoints(pts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds, err := NewDataset(ps, WithoutNormalization())
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.StartTimer()
			if _, err := ds.Query(20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ShardedColdQuery", func(b *testing.B) {
		// The partition–merge path at the same k: per-shard ε-dominance
		// cover, survivor union, one ε-kernel build, GeoGreedy on the
		// merged core. Ingestion and engine teardown are untimed, build
		// and query are timed — the benchbaseline diff gates this
		// entry's ns/op against ColdQuery's, because sharding exists to
		// beat the global pass and a regression here is a scale-wall
		// regression.
		ps := vecsToPoints(pts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds, err := NewDataset(ps, WithoutNormalization())
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.StartTimer()
			eng, err := NewEngine(ds, WithShardedServing(benchShards, benchShardEps))
			if err != nil {
				b.Fatal(err)
			}
			if s := eng.Stats(); s.Shards == 0 {
				b.Fatal("shard build fell back to unsharded serving")
			}
			if _, err := eng.Query(ctx, 20); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := eng.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("Greedy", func(b *testing.B) {
		// Greedy is LP-per-candidate and would take minutes at 100k;
		// bench a fixed-size slice so the suite stays minutes-total
		// while still exposing the per-candidate LP fan-out.
		n := len(pts)
		if n > 2000 {
			n = 2000
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyParCtx(ctx, pts[:n], 10, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
