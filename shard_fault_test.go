//go:build kregretfault

// Fault-injection tests for the coreset and sharded-serving layer:
// an armed shard-merge or coreset-build site must degrade the engine
// to its unsharded path (counted, never wrong). They compile only
// under the kregretfault tag (`make test-fault`).
package kregret

import (
	"context"
	"math"
	"testing"

	"repro/internal/fault"
)

// TestShardMergeFaultFallsBackUnsharded: a failed shard merge leaves
// the epoch unsharded — answers stay byte-identical to a plain engine
// — and the fallback is counted. The next fold, with the site
// disarmed, re-shards.
func TestShardMergeFaultFallsBackUnsharded(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds, err := NewDataset(testPoints(200, 3, 120))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteShardMerge, 1)
	eng, err := NewEngine(ds, WithShardedServing(3, 0.1))
	if err != nil {
		t.Fatalf("shard fault must not fail startup: %v", err)
	}
	defer shutdownEngine(t, eng)
	s := eng.Stats()
	if s.ShardFallbacks != 1 {
		t.Fatalf("ShardFallbacks = %d, want 1", s.ShardFallbacks)
	}
	if s.Shards != 0 || s.CoreSize != 0 {
		t.Fatalf("fallen-back epoch still reports sharding: %+v", s)
	}
	want, err := ds.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.MRR) != math.Float64bits(want.MRR) {
		t.Fatalf("fallen-back answer %v != plain %v", got.MRR, want.MRR)
	}

	// Site disarmed: the next fold re-shards.
	if err := eng.Apply(context.Background(), InsertMutation(Point{1.5, 1.5, 1.5})); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if s.Shards != 3 || s.CoreSize <= 0 {
		t.Fatalf("post-fold epoch did not re-shard: %+v", s)
	}
	if s.ShardFallbacks != 1 {
		t.Fatalf("ShardFallbacks moved to %d across a healthy fold", s.ShardFallbacks)
	}
}

// TestCoresetBuildFaultFallsBackUnsharded: the per-shard coreset
// build is inside the shard fan-out, so arming it degrades the engine
// exactly like a merge failure.
func TestCoresetBuildFaultFallsBackUnsharded(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	ds, err := NewDataset(testPoints(200, 3, 121))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteCoresetBuild, 1)
	eng, err := NewEngine(ds, WithShardedServing(2, 0.1))
	if err != nil {
		t.Fatalf("coreset fault must not fail startup: %v", err)
	}
	defer shutdownEngine(t, eng)
	if s := eng.Stats(); s.ShardFallbacks != 1 || s.Shards != 0 {
		t.Fatalf("expected unsharded fallback, got %+v", s)
	}
	if _, err := eng.Query(context.Background(), 4); err != nil {
		t.Fatalf("fallen-back engine cannot answer: %v", err)
	}
}
