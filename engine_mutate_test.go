package kregret

import (
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

// TestEngineApplyRebuildsIndex: on a snapshot-backed engine a fold
// rebuilds the index over the new epoch, serves from it, and persists
// it — the file on disk loads against the new epoch's dataset.
func TestEngineApplyRebuildsIndex(t *testing.T) {
	ds := mutGrid(t)
	path := filepath.Join(t.TempDir(), "idx.snap")
	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if err := eng.Apply(context.Background(), InsertMutation(Point{1.0, 1.0})); err != nil {
		t.Fatal(err)
	}
	idx := eng.Index()
	if idx == nil {
		t.Fatal("index lost across fold")
	}
	ans, err := idx.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range ans.Indices {
		if i == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rebuilt index does not know the insert: %v", ans.Indices)
	}
	// The persisted snapshot belongs to the new epoch.
	if _, err := LoadFile(path, eng.Dataset()); err != nil {
		t.Fatalf("persisted index does not match the new epoch: %v", err)
	}
	// And no longer to the old one.
	old := mutGrid(t)
	if _, err := LoadFile(path, old); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("stale-dataset load: %v", err)
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
