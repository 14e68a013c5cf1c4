//go:build kregretfault

// Fault-injection tests for the snapshot persistence path: an
// injected fsync failure (persist.sync) must abort the save, leave no
// temp file behind, and keep the previous on-disk snapshot loadable —
// the atomic-rename protocol never publishes unsynced bytes.
package kregret

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// leftoverTemps returns the snapshot temp files still present in dir;
// a failed save must have removed its own.
func leftoverTemps(t *testing.T, dir string) []string {
	t.Helper()
	var temps []string
	for _, pat := range []string{".kregret-index-*", ".kregret-dataset-*"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		temps = append(temps, m...)
	}
	return temps
}

// TestInjectedFsyncFailureKeepsPreviousIndexSnapshot: SaveFile with
// persist.sync armed fails, removes its temp file, and the previously
// published index snapshot still loads bit-for-bit.
func TestInjectedFsyncFailureKeepsPreviousIndexSnapshot(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.snap")
	ds, err := NewDataset(testPoints(40, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.SitePersistSync, 1)
	if err := idx.SaveFile(path, ds); err == nil {
		t.Fatal("SaveFile succeeded with a failing fsync")
	}
	if fault.Fired(fault.SitePersistSync) == 0 {
		t.Fatal("persist.sync site never fired")
	}
	if temps := leftoverTemps(t, dir); len(temps) != 0 {
		t.Fatalf("failed save left temp files behind: %v", temps)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save modified the published snapshot")
	}
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("previous snapshot unloadable after failed save: %v", err)
	}
}

// TestInjectedFsyncFailureKeepsDatasetSnapshot: the same guarantee
// for the WAL's base snapshot — a Compact whose snapshot fsync fails
// reports the error, removes its temp, leaves the (snapshot, log)
// pair exactly as it was, and Recover still reproduces the full
// mutation history from it.
func TestInjectedFsyncFailureKeepsDatasetSnapshot(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ds.wal")
	snapPath := filepath.Join(dir, "ds.snap")
	ds, err := NewDataset([]Point{{1.0, 0.1}, {0.1, 1.0}, {0.5, 0.5}},
		WithoutNormalization(), WithWAL(walPath, snapPath))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Insert(Point{0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.SitePersistSync, 1)
	if err := ds.Compact(); err == nil {
		t.Fatal("Compact succeeded with a failing fsync")
	}
	if temps := leftoverTemps(t, dir); len(temps) != 0 {
		t.Fatalf("failed compact left temp files behind: %v", temps)
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	walAfter, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) || string(walBefore) != string(walAfter) {
		t.Fatal("failed compact modified the (snapshot, log) pair")
	}

	// The pair still recovers the acknowledged state, insert included.
	rec, err := Recover(snapPath, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 4 || rec.Seq() != 1 {
		t.Fatalf("recovered len/seq = %d/%d, want 4/1", rec.Len(), rec.Seq())
	}
}

// TestEngineFoldSurvivesFsyncFailure: an epoch fold whose post-swap
// compaction hits the failing fsync still swaps the epoch — queries
// see the mutation, the error only reports that durability compaction
// is deferred, and the next fold (fault cleared) persists normally.
// The fold compacts only a log larger than the base snapshot, so the
// log is grown past it first with insert-and-delete pairs applied to
// the dataset directly, which leave its points unchanged.
func TestEngineFoldSurvivesFsyncFailure(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "eng.wal")
	snapPath := filepath.Join(dir, "eng.snap")
	ds, err := NewDataset([]Point{{1.0, 0.1}, {0.1, 1.0}, {0.5, 0.5}},
		WithoutNormalization(), WithWAL(walPath, snapPath))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	for {
		snap, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		log, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if log.Size() > snap.Size() {
			break
		}
		if _, err := ds.Insert(Point{0.2, 0.2}); err != nil {
			t.Fatal(err)
		}
		if err := ds.Delete(3); err != nil {
			t.Fatal(err)
		}
	}

	fault.Arm(fault.SitePersistSync, 1)
	err = eng.Apply(context.Background(), InsertMutation(Point{0.9, 0.9}))
	if err == nil {
		t.Fatal("Apply reported success despite the failed compaction fsync")
	}
	if errors.Is(err, ErrShuttingDown) {
		t.Fatalf("unexpected shutdown error: %v", err)
	}
	// The swap happened anyway: the serving epoch has the insert.
	if n := eng.Dataset().Len(); n != 4 {
		t.Fatalf("epoch not swapped after persistence failure: len=%d", n)
	}
	// And the mutation is durable regardless of the failed compact.
	recovered, rerr := Recover(snapPath, walPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if recovered.Len() != 4 {
		t.Fatalf("durability lost: recovered len=%d, want 4", recovered.Len())
	}
	if cerr := recovered.Close(); cerr != nil {
		t.Fatal(cerr)
	}

	// With the fault cleared the next fold compacts cleanly.
	if err := eng.Apply(context.Background(), InsertMutation(Point{0.2, 0.2})); err != nil {
		t.Fatalf("fold after cleared fault: %v", err)
	}
}

// TestEngineApplyHealsTornAppend: a torn WAL append (a crash inside
// the write, which leaves half a frame on disk and the log unusable)
// fails only its own Apply. The next mutation compacts first — the
// snapshot takes the acknowledged state and the reset drops the torn
// tail — then appends, so writes resume, and the (snapshot, log) pair
// still recovers exactly the acknowledged state.
func TestEngineApplyHealsTornAppend(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "torn.wal")
	snapPath := filepath.Join(dir, "torn.snap")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	defer ds.Close()
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if err := eng.Apply(context.Background(), InsertMutation(Point{0.6, 0.4})); err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.SiteWALAppend, 1)
	if err := eng.Apply(context.Background(), InsertMutation(Point{0.95, 0.95})); err == nil {
		t.Fatal("Apply acknowledged a torn append")
	}
	if fault.Fired(fault.SiteWALAppend) != 1 {
		t.Fatal("the torn append never fired")
	}
	if ds.Len() != 7 || ds.Seq() != 1 {
		t.Fatalf("the torn mutation was applied: len/seq %d/%d, want 7/1", ds.Len(), ds.Seq())
	}
	if err := eng.Apply(context.Background(), DeleteMutation(2), InsertMutation(Point{0.2, 0.7})); err != nil {
		t.Fatalf("Apply after a torn append: %v", err)
	}
	if ds.Len() != 7 || ds.Seq() != 3 {
		t.Fatalf("live len/seq %d/%d, want 7/3", ds.Len(), ds.Seq())
	}

	rec, err := Recover(snapPath, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Seq() != ds.Seq() || !sameBits(datasetBits(t, rec), datasetBits(t, ds)) {
		t.Fatalf("recovered seq %d differs from the live dataset at seq %d", rec.Seq(), ds.Seq())
	}
}

// TestEngineApplyHealsRewoundSyncBatch: with WithSyncEvery(3) a failed
// fsync rewinds the log to its last synced frame, dropping the records
// of the two mutations before it, though both were acknowledged and
// applied. The next mutation must compact them into the base snapshot
// before it appends: its record would otherwise follow a sequence gap,
// and Recover would replay it over the wrong points. A failed SyncWAL
// rewinds the same way and is healed the same way, by the next
// mutation or, if none follows, by Close.
func TestEngineApplyHealsRewoundSyncBatch(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "batch.wal")
	snapPath := filepath.Join(dir, "batch.snap")
	ds := mutGrid(t, WithWAL(walPath, snapPath), WithSyncEvery(3))
	defer ds.Close()
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	ctx := context.Background()
	recovered := func(when string) {
		t.Helper()
		rec, err := Recover(snapPath, walPath)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		defer rec.Close()
		if rec.Seq() != ds.Seq() || !sameBits(datasetBits(t, rec), datasetBits(t, ds)) {
			t.Fatalf("%s: recovered len/seq %d/%d differs from the live dataset at %d/%d",
				when, rec.Len(), rec.Seq(), ds.Len(), ds.Seq())
		}
	}

	if err := eng.Apply(ctx, InsertMutation(Point{0.6, 0.4}), DeleteMutation(0)); err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteWALSync, 1)
	if err := eng.Apply(ctx, InsertMutation(Point{0.95, 0.95})); err == nil {
		t.Fatal("Apply acknowledged a mutation whose fsync failed")
	}
	if fault.Fired(fault.SiteWALSync) != 1 {
		t.Fatal("the failing fsync never fired")
	}
	if ds.Len() != 6 || ds.Seq() != 2 {
		t.Fatalf("live len/seq %d/%d, want 6/2", ds.Len(), ds.Seq())
	}
	if err := eng.Apply(ctx, DeleteMutation(1), InsertMutation(Point{0.2, 0.7})); err != nil {
		t.Fatalf("Apply after a failed fsync: %v", err)
	}
	recovered("after a failed batch fsync")

	fault.Arm(fault.SiteWALSync, 1)
	if err := ds.SyncWAL(); err == nil {
		t.Fatal("SyncWAL reported a failed fsync as durable")
	}
	if err := eng.Apply(ctx, InsertMutation(Point{0.4, 0.6})); err != nil {
		t.Fatalf("Apply after a failed SyncWAL: %v", err)
	}
	if ds.Len() != 7 || ds.Seq() != 5 {
		t.Fatalf("live len/seq %d/%d, want 7/5", ds.Len(), ds.Seq())
	}
	recovered("after a failed SyncWAL")

	fault.Arm(fault.SiteWALSync, 1)
	if err := ds.SyncWAL(); err == nil {
		t.Fatal("SyncWAL reported a failed fsync as durable")
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close after a failed SyncWAL: %v", err)
	}
	recovered("after Close")
}
