package kregret

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func shutdownEngine(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShardedS1Eps0ByteIdentical is the acceptance differential: one
// shard with eps = 0 must serve answers byte-identical to the
// unsharded engine — same indices in the same order, bit-equal MRR —
// because the merged core is exactly the happy set and GeoGreedy sees
// the identical candidate sequence.
func TestShardedS1Eps0ByteIdentical(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		ds, err := NewDataset(testPoints(500, d, int64(100+d)))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewEngine(ds, WithShardedServing(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, d, 7, 15} {
			want, err := plain.Query(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Query(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.MRR) != math.Float64bits(want.MRR) {
				t.Fatalf("d=%d k=%d: sharded MRR %v != unsharded %v (bits differ)", d, k, got.MRR, want.MRR)
			}
			if len(got.Indices) != len(want.Indices) {
				t.Fatalf("d=%d k=%d: sharded selected %d, unsharded %d", d, k, len(got.Indices), len(want.Indices))
			}
			for i := range got.Indices {
				if got.Indices[i] != want.Indices[i] {
					t.Fatalf("d=%d k=%d: sharded indices %v != unsharded %v", d, k, got.Indices, want.Indices)
				}
			}
		}
		shutdownEngine(t, plain)
		shutdownEngine(t, sharded)
	}
}

// TestShardedEpsZeroExact: with several shards and eps = 0 the merged
// core still contains every hull-extreme point, so answers may differ
// in selection but their regret over the full dataset must equal the
// reported value (the measure is exact, not ε-approximate).
func TestShardedEpsZeroExact(t *testing.T) {
	ds, err := NewDataset(testPoints(600, 3, 105))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithShardedServing(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	for _, k := range []int{3, 8} {
		ans, err := eng.Query(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		trueMRR, err := ds.EvaluateMRR(ans.Indices)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(trueMRR-ans.MRR) > 1e-9 {
			t.Fatalf("k=%d: eps=0 sharded reported %v, true regret %v", k, ans.MRR, trueMRR)
		}
	}
}

// TestShardViewHonoursContext: the exact plan's happy pass over the
// shard union runs under the build's context, which is all that can
// stop an eps = 0 build once the shard covers are done, because the
// coreset pass at eps = 0 checks none.
func TestShardViewHonoursContext(t *testing.T) {
	ds, err := NewDataset(testPoints(500, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &errAfterFirst{Context: context.Background()}
	if _, _, _, err := buildShardView(ctx, ds, 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want an error wrapping context.Canceled, got %v", err)
	}
}

// TestShardedEpsBound: with eps > 0 every answer's true regret over
// the full dataset stays within eps of the reported (core-measured)
// value — the per-shard kernel bound composing over the union.
func TestShardedEpsBound(t *testing.T) {
	const eps = 0.15
	ds, err := NewDataset(testPoints(800, 4, 106))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithShardedServing(5, eps))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	for _, k := range []int{4, 10, 20} {
		ans, err := eng.Query(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range ans.Indices {
			if i < 0 || i >= ds.Len() {
				t.Fatalf("k=%d: index %d outside the full dataset", k, i)
			}
		}
		trueMRR, err := ds.EvaluateMRR(ans.Indices)
		if err != nil {
			t.Fatal(err)
		}
		if trueMRR > ans.MRR+eps+1e-9 {
			t.Fatalf("k=%d: true regret %v exceeds reported %v + eps", k, trueMRR, ans.MRR)
		}
	}
}

// TestCoresetDifferential is the ε-kernel core's differential over a
// grid of dimensions, shard counts and budgets: every answer served
// from the core has true regret over the FULL dataset within eps of
// the regret it reports — the composition bound of the merge stage's
// coreset — and within eps of the exact unsharded answer's regret.
func TestCoresetDifferential(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		ds, err := NewDataset(testPoints(800, d, int64(93+d)))
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{d, 5, 10, 20}
		exact := make(map[int]float64, len(ks))
		for _, k := range ks {
			ans, err := ds.Query(k)
			if err != nil {
				t.Fatal(err)
			}
			exact[k] = ans.MRR
		}
		for _, shards := range []int{1, 5} {
			for _, eps := range []float64{0.05, 0.15} {
				t.Run(fmt.Sprintf("d=%d/S=%d/eps=%v", d, shards, eps), func(t *testing.T) {
					eng, err := NewEngine(ds, WithShardedServing(shards, eps))
					if err != nil {
						t.Fatal(err)
					}
					defer shutdownEngine(t, eng)
					for _, k := range ks {
						ans, err := eng.Query(context.Background(), k)
						if err != nil {
							t.Fatal(err)
						}
						for _, i := range ans.Indices {
							if i < 0 || i >= ds.Len() {
								t.Fatalf("k=%d: index %d outside the full dataset", k, i)
							}
						}
						trueMRR, err := ds.EvaluateMRR(ans.Indices)
						if err != nil {
							t.Fatal(err)
						}
						if trueMRR > ans.MRR+eps+1e-9 {
							t.Fatalf("k=%d: true regret %v exceeds reported %v + eps", k, trueMRR, ans.MRR)
						}
						if trueMRR > exact[k]+eps+1e-9 {
							t.Fatalf("k=%d: true regret %v exceeds unsharded %v + eps", k, trueMRR, exact[k])
						}
					}
				})
			}
		}
	}
}

func TestShardedStats(t *testing.T) {
	ds, err := NewDataset(testPoints(400, 3, 107))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithShardedServing(4, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	s := eng.Stats()
	if s.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards)
	}
	if s.CoreSize <= 0 || s.CoreSize > ds.Len() {
		t.Fatalf("CoreSize = %d", s.CoreSize)
	}
	if s.CoresetBuildTime <= 0 {
		t.Fatalf("CoresetBuildTime = %v", s.CoresetBuildTime)
	}
	if s.ShardFallbacks != 0 {
		t.Fatalf("ShardFallbacks = %d on a healthy build", s.ShardFallbacks)
	}

	// Unsharded engines keep the gauges zero.
	plain, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, plain)
	if ps := plain.Stats(); ps.Shards != 0 || ps.CoreSize != 0 || ps.CoresetBuildTime != 0 {
		t.Fatalf("unsharded engine reports shard gauges: %+v", ps)
	}
}

// TestShardedShardsExceedN: S > n clamps to one-point shards and still
// answers correctly.
func TestShardedShardsExceedN(t *testing.T) {
	const n = 40
	ds, err := NewDataset(testPoints(n, 3, 108))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithShardedServing(10*n, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	if s := eng.Stats(); s.Shards != n {
		t.Fatalf("Shards = %d, want clamp to n = %d", s.Shards, n)
	}
	ans, err := eng.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	trueMRR, err := ds.EvaluateMRR(ans.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trueMRR-ans.MRR) > 1e-9 {
		t.Fatalf("one-point shards: reported %v, true %v", ans.MRR, trueMRR)
	}
}

func TestShardedValidation(t *testing.T) {
	ds, err := NewDataset(testPoints(30, 3, 109))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards int
		eps    float64
	}{
		{0, 0},
		{-1, 0.1},
		{2, math.NaN()},
		{2, -0.1},
		{2, 1},
	} {
		eng, err := NewEngine(ds, WithShardedServing(tc.shards, tc.eps))
		if err == nil {
			shutdownEngine(t, eng)
			t.Fatalf("shards=%d eps=%v accepted", tc.shards, tc.eps)
		}
	}
}

func TestMergeShardCores(t *testing.T) {
	got := mergeShardCores([][]int{{0, 3}, nil, {}, {7, 9}, {12}})
	want := []int{0, 3, 7, 9, 12}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
	if out := mergeShardCores(nil); len(out) != 0 {
		t.Fatalf("nil shards merged to %v", out)
	}
}

// TestShardedSnapshotRefused: a sharded engine takes no snapshot.
// NewEngine refuses WithSnapshot beside WithShardedServing, in either
// order and under any plan, before it touches the path.
func TestShardedSnapshotRefused(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 110))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []EngineOption{WithShardedServing(3, 0.1), WithShardedServing(1, 0)} {
		path := filepath.Join(t.TempDir(), "idx.snap")
		for _, opts := range [][]EngineOption{{shards, WithSnapshot(path)}, {WithSnapshot(path), shards}} {
			eng, err := NewEngine(ds, opts...)
			if err == nil {
				shutdownEngine(t, eng)
				t.Fatal("sharded engine accepted a snapshot")
			}
			if !strings.Contains(err.Error(), "WithSnapshot") {
				t.Fatalf("refusal does not name the option: %v", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused engine left a file at the path (stat: %v)", err)
			}
		}
	}
}

// shardedCoreSnapshot is an index snapshot of ds as a sharded engine
// wrote it before sharded engines stopped taking snapshots: the list
// over the merged core of plan (shards, eps), its candidates in global
// indices, and the core itself in the payload's Core field.
func shardedCoreSnapshot(tb testing.TB, ds *Dataset, shards int, eps float64) []byte {
	tb.Helper()
	serveDS, coreMap, _, err := buildShardView(context.Background(), ds, shards, eps)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := serveDS.BuildIndex()
	if err != nil {
		tb.Fatal(err)
	}
	cand := make([]int, len(idx.cand))
	for i, c := range idx.cand {
		cand[i] = coreMap[c]
	}
	payload := indexPayload(tb, ds, indexWire{Cand: cand, Core: coreMap}, listStream(tb, idx))
	return frameSnapshot(snapshotMagic, snapshotVersion, payload)
}

// TestSnapshotRefusesShardedCore: a snapshot that carries a sharded
// core holds an ε-approximate list, so it never serves an exact
// engine. LoadFile reports it as ErrIndexMismatch, and an engine over
// it rebuilds, rewrites the file and answers as Dataset.Query does.
func TestSnapshotRefusesShardedCore(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 112))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := os.WriteFile(path, shardedCoreSnapshot(t, ds, 3, 0.1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, ds); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("core-carrying snapshot: want ErrIndexMismatch, got %v", err)
	}

	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	if !eng.Stats().SnapshotRebuilt {
		t.Fatal("engine adopted a core-carrying snapshot")
	}
	for k := 1; k <= 8; k++ {
		got, err := eng.Query(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffAnswer(got, want); err != nil {
			t.Fatalf("k=%d after the rebuild: %v", k, err)
		}
	}
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("rebuild did not rewrite the snapshot: %v", err)
	}
}

// TestShardedReloadNamesCoreMismatch: when an engine's snapshot
// carries a sharded core and the rebuild then fails, the error carries
// the mismatch as a wrapped ErrIndexMismatch beside the rebuild's own
// cause, never a nil cause.
func TestShardedReloadNamesCoreMismatch(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 112))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := os.WriteFile(path, shardedCoreSnapshot(t, ds, 2, 0.1), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := NewEngineContext(ctx, ds, WithSnapshot(path))
	if err == nil {
		shutdownEngine(t, eng)
		t.Fatal("rebuild under a canceled context succeeded")
	}
	if !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("error does not name the core mismatch: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error lost the rebuild's cause: %v", err)
	}
}

// TestSnapshotRejectsBadCore: a persisted core is refused whatever its
// entries — unsorted, duplicate, negative, out of range or a plausible
// one — as ErrIndexMismatch, never a panic or a silently wrong
// serving set.
func TestSnapshotRejectsBadCore(t *testing.T) {
	ds, err := NewDataset(testPoints(60, 3, 111))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range [][]int{
		{5, 3},               // unsorted
		{2, 2},               // duplicate
		{-1, 4},              // negative
		{0, ds.Len()},        // out of range
		{0, 1, ds.Len() * 2}, // far out of range
		idx.cand,             // sorted and in range
	} {
		payload := indexPayload(t, ds, indexWire{Cand: idx.cand, Core: core}, listStream(t, idx))
		path := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(path, frameSnapshot(snapshotMagic, snapshotVersion, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path, ds); !errors.Is(err, ErrIndexMismatch) {
			t.Fatalf("core %v: got %v, want ErrIndexMismatch", core, err)
		}
	}
}

// TestShardedFoldReshards: Engine.Apply folds a new epoch that must be
// re-sharded — the gauges stay populated and answers keep the eps
// bound against the mutated dataset.
func TestShardedFoldReshards(t *testing.T) {
	const eps = 0.1
	ds, err := NewDataset(testPoints(300, 3, 112))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithShardedServing(3, eps))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	if err := eng.Apply(context.Background(), InsertMutation(Point{1.5, 1.5, 1.5})); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Epoch != 2 {
		t.Fatalf("Apply did not fold: epoch %d", s.Epoch)
	}
	if s.Shards != 3 || s.CoreSize <= 0 {
		t.Fatalf("successor epoch lost sharding: %+v", s)
	}
	ans, err := eng.Query(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// The inserted point dominates everything; the core must have
	// picked it up.
	found := false
	for _, i := range ans.Indices {
		found = found || i == 300
	}
	if !found {
		t.Fatalf("post-fold core misses the dominating insert: %v", ans.Indices)
	}
	trueMRR, err := eng.Dataset().EvaluateMRR(ans.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if trueMRR > ans.MRR+eps+1e-9 {
		t.Fatalf("post-fold regret %v exceeds reported %v + eps", trueMRR, ans.MRR)
	}
}

// TestShardedPerQueryCandidateOverride: per-query CandidatesSkyline /
// CandidatesAll run on the full dataset even on a sharded engine, so
// their indices are global and their answers match the plain dataset.
func TestShardedPerQueryCandidateOverride(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 113))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithShardedServing(4, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	for _, c := range []CandidateSet{CandidatesSkyline, CandidatesAll} {
		want, err := ds.Query(5, WithCandidates(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(context.Background(), 5, WithCandidates(c))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MRR) != math.Float64bits(want.MRR) {
			t.Fatalf("%v on sharded engine: MRR %v != dataset %v", c, got.MRR, want.MRR)
		}
		for i := range got.Indices {
			if got.Indices[i] != want.Indices[i] {
				t.Fatalf("%v on sharded engine: indices %v != dataset %v", c, got.Indices, want.Indices)
			}
		}
	}
}
