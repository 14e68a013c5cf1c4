package kregret

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEngineApplyFoldsEpoch: one Apply (default threshold 1) swaps in
// a new epoch whose queries see the mutation, while a view pinned
// before the fold keeps answering from the old generation.
func TestEngineApplyFoldsEpoch(t *testing.T) {
	ds := mutGrid(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	before, err := eng.Query(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pinned := eng.Dataset()

	// {1,1} dominates every grid point: any 2-point answer must pick it.
	if err := eng.Apply(context.Background(), InsertMutation(Point{1.0, 1.0})); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, idx := range after.Indices {
		if idx == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-fold query missed the dominating insert: %v", after.Indices)
	}
	// The pinned pre-fold view is immune to the mutation.
	if pinned.Len() != 6 {
		t.Fatalf("pinned epoch grew: len=%d", pinned.Len())
	}
	old, err := pinned.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswerBits(t, old, before)

	s := eng.Stats()
	if s.Epoch != 2 || s.MutationsApplied != 1 || s.Rebuilds != 1 {
		t.Fatalf("stats after one fold: epoch=%d applied=%d rebuilds=%d",
			s.Epoch, s.MutationsApplied, s.Rebuilds)
	}
}

// TestEngineSnapshotFoldKeepsStartupFile: WithSnapshot is a startup
// cache. Apply folds without building or writing an index: the
// snapshot file stays byte-identical, Index keeps answering from the
// startup list, and that index, which describes the first epoch, is
// ErrIndexMismatch against Dataset() after the fold. Queries serve the
// folded epoch.
func TestEngineSnapshotFoldKeepsStartupFile(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	startup, idx := eng.Dataset(), eng.Index()
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	happy, err := startup.HappyPoints()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.Apply(ctx, InsertMutation(Point{0.5, 0.5, 0.5}), DeleteMutation(happy[0])); err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(ctx, DeleteMutation(happy[len(happy)/2])); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Epoch != 3 || s.Rebuilds != 2 {
		t.Fatalf("after two folds: epoch=%d rebuilds=%d, want 3 and 2", s.Epoch, s.Rebuilds)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, written) {
		t.Fatal("a fold rewrote the snapshot file")
	}
	if eng.Index() != idx {
		t.Fatal("a fold replaced the startup index")
	}
	for _, k := range upTo(8) {
		got, err := eng.Index().Query(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := startup.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffAnswer(got, want); err != nil {
			t.Fatalf("startup index k=%d: %v", k, err)
		}
	}
	other := filepath.Join(t.TempDir(), "other.snap")
	if err := eng.Index().SaveFile(other, eng.Dataset()); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("SaveFile of the startup index after a fold: want ErrIndexMismatch, got %v", err)
	}
	if _, err := os.Stat(other); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused SaveFile left a file (stat: %v)", err)
	}
	sameAsDataset(t, eng, eng.Dataset(), upTo(8))
}

// TestEngineSnapshotRestartAfterFold: a restart loads the snapshot only
// when it describes the recovered dataset. A folded epoch persisted
// with Dataset().BuildIndex() and SaveFile loads (SnapshotRebuilt
// false); once the dataset has moved past the file, the restart
// rebuilds and rewrites it (SnapshotRebuilt true). Both restarts
// answer k = 1…8 as Dataset.Query does.
func TestEngineSnapshotRestartAfterFold(t *testing.T) {
	dir := t.TempDir()
	walPath, snapPath := filepath.Join(dir, "d.wal"), filepath.Join(dir, "d.snap")
	idxPath := filepath.Join(dir, "idx.snap")
	ds, err := NewDataset(testPoints(300, 3, 5), WithWAL(walPath, snapPath))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// stop shuts eng down and closes its dataset, as a process exit
	// would leave the files.
	stop := func(eng *Engine, ds *Dataset) {
		t.Helper()
		if err := errors.Join(eng.Shutdown(ctx), ds.Close()); err != nil {
			t.Fatal(err)
		}
	}
	restart := func(wantRebuilt bool) (*Engine, *Dataset) {
		t.Helper()
		rec, err := Recover(snapPath, walPath)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(rec, WithSnapshot(idxPath))
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats().SnapshotRebuilt; got != wantRebuilt {
			t.Fatalf("restart at seq %d: SnapshotRebuilt = %v, want %v", rec.Seq(), got, wantRebuilt)
		}
		sameAsDataset(t, eng, rec, upTo(8))
		return eng, rec
	}

	eng, err := NewEngine(ds, WithSnapshot(idxPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(ctx, InsertMutation(Point{0.5, 0.5, 0.5}), DeleteMutation(3)); err != nil {
		t.Fatal(err)
	}
	folded := eng.Dataset()
	idx, err := folded.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveFile(idxPath, folded); err != nil {
		t.Fatal(err)
	}
	stop(eng, ds)

	eng, rec := restart(false)
	if err := eng.Apply(ctx, DeleteMutation(5)); err != nil {
		t.Fatal(err)
	}
	stop(eng, rec)

	eng, rec = restart(true)
	defer stop(eng, rec)
	if _, err := LoadFile(idxPath, rec); err != nil {
		t.Fatalf("the rebuilding restart did not rewrite the snapshot: %v", err)
	}
}

// TestEngineApplyDurableAndCompacted: over a WAL-backed dataset a fold
// leaves the log alone while the log is no larger than the base
// snapshot, and the fold whose record carries it past the snapshot
// compacts it back to its bare header. Killing the process on either
// side (modeled by recovering from the on-disk pair without Close)
// yields a dataset answering bit-identically to the serving epoch.
func TestEngineApplyDurableAndCompacted(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mut.wal")
	snapPath := filepath.Join(dir, "mut.snap")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	fileSize := func(path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	recoversServingEpoch := func(label string) {
		t.Helper()
		want, err := eng.Query(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(snapPath, walPath)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer rec.Close()
		if rec.Len() != ds.Len() || rec.Seq() != ds.Seq() {
			t.Fatalf("%s: recovered len/seq %d/%d, want %d/%d", label, rec.Len(), rec.Seq(), ds.Len(), ds.Seq())
		}
		got, err := rec.Query(3)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswerBits(t, got, want)
	}

	// WAL frames (length prefix, op, seq, then the coordinates or the
	// index, CRC) and the log header are fixed-size.
	const header, insertFrame, deleteFrame = 5, 4 + 1 + 8 + 4 + 2*8 + 4, 4 + 1 + 8 + 4 + 4
	snapSize := fileSize(snapPath)
	logSize := int64(header)
	// Insert a point and delete it again, so the dataset stays small
	// while the log grows one record per fold.
	for i := 0; ; i++ {
		m, frame := InsertMutation(Point{0.7, 0.2}), int64(insertFrame)
		if i%2 == 1 {
			m, frame = DeleteMutation(6), deleteFrame
		}
		if err := eng.Apply(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		_, watermark, _, err := loadDatasetFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if logSize+frame <= snapSize {
			// Below the trigger: the record was appended, nothing compacted.
			if got := fileSize(walPath); got != logSize+frame || watermark != 0 {
				t.Fatalf("fold %d below the trigger: log %d bytes (want %d), snapshot watermark %d (want 0)",
					i, got, logSize+frame, watermark)
			}
			logSize += frame
			recoversServingEpoch(fmt.Sprintf("fold %d, log of %d bytes", i, logSize))
			continue
		}
		// This fold's record carried the log past the snapshot: it
		// compacted the epoch into the snapshot and reset the log.
		if got := fileSize(walPath); got != header || watermark != ds.Seq() {
			t.Fatalf("fold %d crossed the %d-byte snapshot: log %d bytes (want %d), watermark %d (want %d)",
				i, snapSize, got, header, watermark, ds.Seq())
		}
		if i < 2 {
			t.Fatalf("the first compaction came at fold %d: the test never saw a fold below the trigger", i)
		}
		recoversServingEpoch("after the compaction")
		return
	}
}

// TestEngineApplyPartialFailureFolds: a failing mutation mid-batch
// reports its position, keeps the durable prefix, and still folds the
// prefix into the serving epoch rather than leaving it invisible.
func TestEngineApplyPartialFailureFolds(t *testing.T) {
	ds := mutGrid(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	err = eng.Apply(context.Background(),
		InsertMutation(Point{0.4, 0.4}),
		DeleteMutation(99), // out of range
		InsertMutation(Point{0.6, 0.6}),
	)
	if err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	s := eng.Stats()
	if s.MutationsApplied != 1 || s.Epoch != 2 {
		t.Fatalf("prefix not folded after failure: %+v", s)
	}
	if n := eng.Dataset().Len(); n != 7 {
		t.Fatalf("serving epoch len=%d, want 7", n)
	}
}

// TestEngineShutdownRacingApply is the lifecycle race of the epoch
// design: Applies and queries in full flight while Shutdown drains.
// The drain must complete, no goroutine may leak, and every Apply
// must either fully succeed or report ErrShuttingDown — with any
// mutations it did apply still folded or pending, never lost.
func TestEngineShutdownRacingApply(t *testing.T) {
	base := runtime.NumGoroutine()
	ds := mutGrid(t)
	eng, err := NewEngine(ds, WithWorkers(4), WithQueueDepth(8), WithWatchdog(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		applied  int64
		rejected int64
		muCount  sync.Mutex
	)
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				err := eng.Apply(context.Background(), InsertMutation(Point{0.1, 0.1}))
				muCount.Lock()
				if err == nil {
					applied++
				} else if errors.Is(err, ErrShuttingDown) {
					rejected++
					muCount.Unlock()
					return
				} else {
					t.Errorf("apply failed with non-shutdown error: %v", err)
					muCount.Unlock()
					return
				}
				muCount.Unlock()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				_, err := eng.Query(context.Background(), 2)
				if err != nil {
					if !errors.Is(err, ErrShuttingDown) && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrShed) {
						t.Errorf("query failed with unclassified error: %v", err)
					}
					if errors.Is(err, ErrShuttingDown) {
						return
					}
				}
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the race develop
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()

	if rejected == 0 {
		t.Fatal("no Apply observed ErrShuttingDown")
	}
	// Post-shutdown mutations are rejected outright.
	if err := eng.Apply(context.Background(), InsertMutation(Point{0.1, 0.1})); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Apply: %v", err)
	}
	// Nothing applied was lost: the engine's counter matches the
	// dataset's logical clock exactly.
	s := eng.Stats()
	if uint64(applied) != s.MutationsApplied || ds.Seq() != s.MutationsApplied {
		t.Fatalf("mutation accounting: acked=%d stats=%d seq=%d", applied, s.MutationsApplied, ds.Seq())
	}
	// Every fold was consistent: serving epoch length is base + folded.
	if got, want := eng.Dataset().Len(), 6+int(s.MutationsApplied); got != want {
		t.Fatalf("serving epoch len=%d, want %d", got, want)
	}

	// The drain left no goroutine behind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRebuildThresholdDefaultFoldsEveryApply pins that every Apply
// folds immediately, so readers never lag durable state.
func TestRebuildThresholdDefaultFoldsEveryApply(t *testing.T) {
	ds := mutGrid(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := eng.Apply(context.Background(), InsertMutation(Point{0.5, 0.5})); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		if s.Epoch != uint64(1+i) || s.Rebuilds != uint64(i) {
			t.Fatalf("after %d applies: epoch=%d rebuilds=%d", i, s.Epoch, s.Rebuilds)
		}
	}
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
