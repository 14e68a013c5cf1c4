package kregret

// BenchmarkPaper is the baseline suite behind `make bench`: the
// paper-scale hot paths (GeoGreedy at n=100k d=4 and over the happy
// points, the prefix-list build and the engine's list-served query,
// the exact and sampled evaluators, ingestion, the candidate
// preprocessing, the durable write path and recovery) with the
// worker count taken from the -kregret.parallelism flag, so one binary
// measures both the sequential path and any fan-out width. The
// entries that go through Dataset or Engine run at GOMAXPROCS, so
// cmd/benchbaseline pairs each pass's flag with the same -cpu width.
// It runs the suite at parallelism 1 and N, records each row's median
// and IQR over its passes, and writes BENCH_<rev>.json.

import (
	"context"
	"errors"
	"flag"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
	"repro/internal/wal"
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
	paperOnce  sync.Once
	paperPts   []geom.Vector
	paperHappy []geom.Vector
	paperSel   []int
	paperEval  *core.EvalIndex
	paperErr   error
)

// paperInstance builds the shared BenchmarkPaper fixture once: the
// anti-correlated instance, its happy points, a reference selection
// to evaluate, and a skyline-pruned EvalIndex — the evaluation
// substrate Dataset holds, so the evaluator benchmarks measure the
// library's real serving path (flat kernels + extreme-set pruning)
// rather than a transient per-call rebuild.
func paperInstance(b *testing.B) ([]geom.Vector, []geom.Vector, []int, *core.EvalIndex) {
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
		for _, i := range happy.ComputeAmongSkylineCertParallel(paperPts, sky, *benchParallelism).HappyPoints() {
			paperHappy = append(paperHappy, paperPts[i])
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
	return paperPts, paperHappy, paperSel, paperEval
}

// benchInserts returns fresh points from the instance's distribution
// for the write-path entries to insert, at most 5,000 of them.
func benchInserts(b *testing.B, n int) []geom.Vector {
	b.Helper()
	fresh, err := dataset.AntiCorrelated(min(n, 5000), benchPaperD, 20140401)
	if err != nil {
		b.Fatal(err)
	}
	return fresh
}

func BenchmarkPaper(b *testing.B) {
	ctx := context.Background()
	w := *benchParallelism
	pts, cand, sel, eval := paperInstance(b)

	b.Run("GeoGreedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GeoGreedyParCtx(ctx, pts, 50, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GeoGreedyHappy", func(b *testing.B) {
		// The per-query solve a default query paid before the prefix
		// list: GeoGreedy at k = 20 over the happy points. The pair
		// with ListBuild shows that growing the list costs a solve.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GeoGreedyParCtx(ctx, cand, 20, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ListBuild", func(b *testing.B) {
		// The prefix-list build an engine epoch runs for its first
		// default query at k = 20 (DESIGN.md §10).
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildStoredListUpToParCtx(ctx, cand, 20, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EngineQuery", func(b *testing.B) {
		// The default serve path: Engine.Query on a live engine whose
		// prefix list already covers every k asked (10–50, cycling),
		// so each query is admission plus an O(k) prefix copy.
		ds, err := NewDataset(vecsToPoints(pts), WithoutNormalization())
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := eng.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
		}()
		if _, err := eng.Query(ctx, 50); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(ctx, 10+i%41); err != nil {
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
			if _, _, err := eval.SampledRegretParCtx(ctx, sel, 1000, 1, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MRRSampled1kFull", func(b *testing.B) {
		// The unpruned path: a transient full-scan EvalIndex per
		// call, isolating what the extreme set saves.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			full, err := core.NewEvalIndex(pts)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := full.SampledRegretParCtx(ctx, sel, 1000, 1, w); err != nil {
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
	b.Run("Ingest", func(b *testing.B) {
		// The copy-in every cold start pays before any preprocessing:
		// validation, normalization and the one flat point array
		// (DESIGN.md §12). The cold-query pair below leaves it untimed.
		ps := vecsToPoints(pts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewDataset(ps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ColdQuery", func(b *testing.B) {
		// End-to-end unsharded baseline for the sharded variant below:
		// build (the full global skyline → happy preprocess from cold
		// caches) plus one k=20 happy-point query. Dataset ingestion is
		// identical on both sides of the pair and untimed (Paper/Ingest
		// times it) — the pair compares the preprocessing strategies,
		// not the shared copy-in (the explicit collection drains the
		// untimed allocation debt so neither side pays the other's
		// garbage inside the timed window).
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
	b.Run("Apply", func(b *testing.B) {
		// The write path end to end: alternating inserts of fresh points
		// and mid-array deletes through Engine.Apply, each fsynced to the
		// WAL and folded into a serving epoch whose candidate caches a
		// first query warmed. The fold compacts only once the log
		// outgrows the base snapshot (DESIGN.md §15). An untimed first
		// insert makes the dataset's owned point array, so the timed
		// inserts write in place at any b.N and the row measures the
		// steady state: an in-place insert and a copying delete.
		dir := b.TempDir()
		ds, err := NewDataset(vecsToPoints(pts), WithoutNormalization(), WithSyncEvery(1),
			WithWAL(filepath.Join(dir, "apply.wal"), filepath.Join(dir, "apply.snap")))
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := errors.Join(eng.Shutdown(ctx), ds.Close()); err != nil {
				b.Fatal(err)
			}
		}()
		if _, err := eng.Query(ctx, 20); err != nil {
			b.Fatal(err)
		}
		fresh := benchInserts(b, len(pts))
		if err := eng.Apply(ctx, InsertMutation(Point(fresh[len(fresh)-1]))); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := DeleteMutation(ds.Len() / 2)
			if i%2 == 0 {
				m = InsertMutation(Point(fresh[i/2%len(fresh)]))
			}
			if err := eng.Apply(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Recover", func(b *testing.B) {
		// Restart of a durable dataset: the base snapshot of the
		// instance plus a log of 10,000 alternating inserts and
		// mid-array deletes, replayed in one pass.
		const records = 10_000
		dir := b.TempDir()
		snapPath, walPath := filepath.Join(dir, "recover.snap"), filepath.Join(dir, "recover.wal")
		ds, err := NewDataset(vecsToPoints(pts), WithoutNormalization(), WithWAL(walPath, snapPath))
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
		log, _, err := wal.Open(walPath, wal.Config{SyncEvery: records})
		if err != nil {
			b.Fatal(err)
		}
		fresh := benchInserts(b, len(pts))
		n := len(pts)
		for i := 0; i < records; i++ {
			rec := wal.Record{Seq: uint64(i + 1), Op: wal.OpDelete, Index: n / 2}
			if i%2 == 0 {
				rec = wal.Record{Seq: uint64(i + 1), Op: wal.OpInsert, Point: fresh[i/2%len(fresh)]}
				n++
			} else {
				n--
			}
			if err := log.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec, err := Recover(snapPath, walPath)
			if err != nil {
				b.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Greedy", func(b *testing.B) {
		// Greedy is LP-per-candidate and would take minutes over the
		// 100k raw points, so it runs on the instance's happy points
		// (2,319 at the default n), the candidate set the degradation
		// chain's Greedy stage gets on this instance. That is above
		// 2·grainLP = 2,048, so the width-N pass measures the
		// per-candidate LP fan-out; a smaller -kregret.benchn can put
		// it under the cutoff, where both passes run inline.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyParCtx(ctx, cand, 10, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
