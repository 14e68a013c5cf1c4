package kregret

// Durable mutations: Insert/Delete over copy-on-write epochs, the
// write-ahead log attachment, crash recovery (Recover) and log
// compaction (Compact). See DESIGN.md §15 for the durability model.

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
	"repro/internal/wal"
)

// ErrWALRequired is returned by Compact and Sync on a dataset built
// without WithWAL: there is no log to compact or flush.
var ErrWALRequired = errors.New("kregret: dataset has no write-ahead log (see WithWAL)")

// WithWAL attaches a write-ahead log to the dataset: every Insert and
// Delete is appended (and, per WithSyncEvery, fsynced) to walPath
// before it is applied, and a base snapshot of the freshly constructed
// dataset is written to snapshotPath so the (snapshot, log) pair alone
// reconstructs the full state. After a crash, Recover(snapshotPath,
// walPath) returns the exact acknowledged state.
//
// NewDataset with WithWAL requires walPath to hold no records (a fresh
// or fully compacted log): refusing to build a new dataset over an
// existing mutation history is what prevents silently orphaning it.
// Use Recover to resume a previous history.
//
// Only a NewDataset option; as a Query option it has no effect.
func WithWAL(walPath, snapshotPath string) Option {
	return func(o *options) { o.walPath, o.walSnap = walPath, snapshotPath }
}

// WithSyncEvery sets the WAL's fsync batching: the log syncs after
// every n appends. The default 1 makes every acknowledged mutation
// durable before Insert/Delete returns; larger values trade that for
// mutation throughput, risking at most the last n−1 acknowledged
// mutations on a crash (never a torn or reordered log). Only
// meaningful together with WithWAL.
func WithSyncEvery(n int) Option { return func(o *options) { o.syncEvery = n } }

// attachWAL opens (and requires empty) the configured log and writes
// the seq-0 base snapshot. Called from NewDataset after the state is
// built.
func (d *Dataset) attachWAL(o options) error {
	if o.walSnap == "" {
		return errors.New("kregret: WithWAL requires a snapshot path")
	}
	log, recs, err := wal.Open(o.walPath, wal.Config{SyncEvery: o.syncEvery})
	if err != nil {
		return fmt.Errorf("kregret: opening WAL: %w", err)
	}
	if len(recs) > 0 {
		return errors.Join(
			fmt.Errorf("kregret: WAL %s already holds %d records; use Recover to resume it", o.walPath, len(recs)),
			log.Close())
	}
	if err := saveDatasetFile(o.walSnap, d.snap()); err != nil {
		return errors.Join(err, log.Close())
	}
	d.muMut.Lock()
	d.wal, d.walSnap = log, o.walSnap
	d.muMut.Unlock()
	return nil
}

// WALBacked reports whether the dataset currently has a write-ahead
// log attached (false after Close).
func (d *Dataset) WALBacked() bool {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	return d.wal != nil
}

// Seq returns the sequence number of the last mutation folded into
// the current epoch (zero for a freshly constructed dataset). It is
// the dataset's logical clock: strictly increasing across mutations
// and preserved by compaction, recovery and Snapshot.
func (d *Dataset) Seq() uint64 { return d.snap().seq }

// Snapshot returns a Dataset pinned to the current epoch: a cheap
// read view sharing the epoch's points and candidate caches, immune
// to later mutations of the parent. The snapshot has no WAL — it is
// a view, not a fork of the durable history.
func (d *Dataset) Snapshot() *Dataset {
	nd := &Dataset{}
	nd.state.Store(d.snap())
	return nd
}

// validateInsert checks an inserted point against the epoch's
// invariants. Inserted coordinates are taken verbatim in the
// dataset's current (normalized) coordinate space — mutation never
// renormalizes, because rescaling every existing point would silently
// change answers and break replay determinism.
func validateInsert(st *dsState, v geom.Vector) error {
	if len(v) != len(st.pts[0]) {
		return fmt.Errorf("kregret: inserted point: %w: %d vs %d",
			geom.ErrDimensionMismatch, len(st.pts[0]), len(v))
	}
	if !v.IsFinite() || !v.AllPositive() {
		return fmt.Errorf("kregret: inserted point (%v) must be finite and strictly positive", v)
	}
	return nil
}

// Insert appends a tuple to the dataset and returns its index (always
// Len() of the previous epoch — existing indices never move). The
// coordinates are interpreted in the dataset's current (normalized)
// space and are not renormalized. With a WAL attached, the mutation
// is durable before Insert returns; on error nothing changed, on disk
// or in memory.
//
// The new epoch is published atomically: queries already running
// finish on the epoch they started with, later calls see the insert.
// Candidate sets and indexes are recomputed lazily per epoch; for
// serving workloads, Engine.Apply batches that cost across mutations.
func (d *Dataset) Insert(p Point) (int, error) {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.walClosed {
		return 0, ErrClosed
	}
	st := d.snap()
	v := geom.Vector(p).Clone()
	if err := validateInsert(st, v); err != nil {
		return 0, err
	}
	seq := st.seq + 1
	if d.wal != nil {
		if err := d.wal.Append(wal.Record{Seq: seq, Op: wal.OpInsert, Point: v}); err != nil {
			return 0, fmt.Errorf("kregret: insert not durable: %w", err)
		}
	}
	pts := make([]geom.Vector, len(st.pts)+1)
	copy(pts, st.pts)
	pts[len(st.pts)] = v
	ns := &dsState{pts: pts, seq: seq}
	seedAfterInsert(st, ns)
	d.state.Store(ns)
	return len(pts) - 1, nil
}

// seedAfterInsert folds the previous epoch's READY candidate caches
// into the successor epoch with the incremental operators — an
// O(|sky|·d) patch instead of the O(n²·d²) from-scratch preprocess —
// before the successor is published. Cold caches stay cold: delta
// maintenance never triggers a computation the previous epoch did not
// already pay for, so purely write-heavy workloads keep O(1)
// mutations. The successor is unpublished here, so the Once.Do calls
// cannot race a reader.
func seedAfterInsert(st, ns *dsState) {
	if !st.skyDone.Load() {
		return
	}
	skyNew, removed, inserted, err := skyline.UpdateInsert(ns.pts, st.sky)
	if err != nil {
		return // impossible for a consistent cache; fall back to lazy recompute
	}
	ns.skyOnce.Do(func() { ns.sky = skyNew })
	ns.skyDone.Store(true)
	if !st.happyDone.Load() || st.cert == nil {
		return
	}
	cert := happy.UpdateInsert(ns.pts, st.cert, skyNew, removed, inserted)
	ns.happyOnce.Do(func() {
		ns.cert = cert
		ns.happy = cert.HappyPoints()
	})
	ns.happyDone.Store(true)
}

// seedAfterDelete is seedAfterInsert's counterpart for Delete: st is
// the pre-delete epoch (whose caches use pre-delete indices), ns the
// shifted successor.
func seedAfterDelete(st, ns *dsState, delIdx int) {
	if !st.skyDone.Load() {
		return
	}
	skyNew, entrants, wasSky, err := skyline.UpdateDelete(st.pts, st.sky, delIdx)
	if err != nil {
		return
	}
	ns.skyOnce.Do(func() { ns.sky = skyNew })
	ns.skyDone.Store(true)
	if !st.happyDone.Load() || st.cert == nil {
		return
	}
	cert := happy.UpdateDelete(ns.pts, st.cert, delIdx, skyNew, entrants, wasSky)
	ns.happyOnce.Do(func() {
		ns.cert = cert
		ns.happy = cert.HappyPoints()
	})
	ns.happyDone.Store(true)
}

// Delete removes the tuple at index i; tuples after it shift down by
// one (the WAL records the index, so replay shifts identically).
// Deleting the last remaining tuple is an error — an empty dataset
// is not a valid state. With a WAL attached, the mutation is durable
// before Delete returns; on error nothing changed.
func (d *Dataset) Delete(i int) error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.walClosed {
		return ErrClosed
	}
	st := d.snap()
	if i < 0 || i >= len(st.pts) {
		return fmt.Errorf("kregret: delete index %d out of range (n=%d)", i, len(st.pts))
	}
	if len(st.pts) == 1 {
		return fmt.Errorf("kregret: delete would leave the dataset empty: %w", ErrNoPoints)
	}
	seq := st.seq + 1
	if d.wal != nil {
		if err := d.wal.Append(wal.Record{Seq: seq, Op: wal.OpDelete, Index: i}); err != nil {
			return fmt.Errorf("kregret: delete not durable: %w", err)
		}
	}
	var pts []geom.Vector
	if i == len(st.pts)-1 {
		// Deleting the tail needs no clone: epochs are immutable, so the
		// predecessor keeps reading its longer view of the same backing
		// array, and the capacity cap forces any future growth to
		// reallocate instead of writing into the shared tail. This turns
		// the insert-then-undo round trip (the Engine fold's probe
		// pattern) from two O(n) copies into one.
		pts = st.pts[:i:i]
	} else {
		pts = make([]geom.Vector, 0, len(st.pts)-1)
		pts = append(pts, st.pts[:i]...)
		pts = append(pts, st.pts[i+1:]...)
	}
	ns := &dsState{pts: pts, seq: seq}
	seedAfterDelete(st, ns, i)
	d.state.Store(ns)
	return nil
}

// Compact folds the mutation history into a fresh base snapshot and
// truncates the log: the current epoch is written (atomically) to the
// snapshot path, then the WAL is reset. Every crash point is safe —
// the snapshot records the sequence number it contains, and replay
// skips log records at or below it, so a crash between the snapshot
// write and the truncation merely replays zero records from a stale
// log. A failed snapshot write leaves the previous (snapshot, log)
// pair fully intact.
func (d *Dataset) Compact() error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.walClosed {
		return ErrClosed
	}
	if d.wal == nil {
		return ErrWALRequired
	}
	if err := saveDatasetFile(d.walSnap, d.snap()); err != nil {
		return err
	}
	if err := d.wal.Reset(); err != nil {
		return fmt.Errorf("kregret: compacting WAL: %w", err)
	}
	return nil
}

// SyncWAL forces any fsync-batched mutations (WithSyncEvery > 1) to
// disk, bounding the acknowledgment lag explicitly.
func (d *Dataset) SyncWAL() error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.wal == nil {
		return ErrWALRequired
	}
	return d.wal.Sync()
}

// ErrClosed is returned by mutations on a dataset whose WAL was
// closed: accepting them would silently drop durability.
var ErrClosed = errors.New("kregret: dataset closed")

// Close syncs and closes the WAL (a no-op on a dataset that never had
// one). The dataset remains queryable after Close; further mutations
// return ErrClosed.
func (d *Dataset) Close() error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	d.walClosed = true
	return err
}

// replayRecord applies one WAL record to the point slice. Records
// were validated when appended, so any violation here means the log
// does not belong to this snapshot (or was corrupted in a way the
// CRC cannot see): it surfaces as wal.ErrCorruptRecord, never as a
// silently-wrong dataset.
func replayRecord(pts []geom.Vector, rec wal.Record) ([]geom.Vector, error) {
	switch rec.Op {
	case wal.OpInsert:
		v := geom.Vector(rec.Point)
		if len(pts) > 0 && len(v) != len(pts[0]) {
			return nil, fmt.Errorf("%w: replayed insert (seq %d) has dimension %d, want %d",
				wal.ErrCorruptRecord, rec.Seq, len(v), len(pts[0]))
		}
		if !v.IsFinite() || !v.AllPositive() {
			return nil, fmt.Errorf("%w: replayed insert (seq %d) is not finite and strictly positive",
				wal.ErrCorruptRecord, rec.Seq)
		}
		return append(pts, v), nil
	case wal.OpDelete:
		if rec.Index < 0 || rec.Index >= len(pts) {
			return nil, fmt.Errorf("%w: replayed delete (seq %d) index %d out of range (n=%d)",
				wal.ErrCorruptRecord, rec.Seq, rec.Index, len(pts))
		}
		if len(pts) == 1 {
			return nil, fmt.Errorf("%w: replayed delete (seq %d) would empty the dataset",
				wal.ErrCorruptRecord, rec.Seq)
		}
		return append(pts[:rec.Index], pts[rec.Index+1:]...), nil
	}
	return nil, fmt.Errorf("%w: replayed record (seq %d) has unknown op %d", wal.ErrCorruptRecord, rec.Seq, rec.Op)
}

// Recover rebuilds a WAL-backed dataset after a crash: the base
// snapshot is loaded, the log's torn tail (a crash mid-append) is
// truncated away, records already folded into the snapshot (a crash
// mid-compaction) are skipped by sequence number, and the remaining
// acknowledged mutations are replayed in order. The result is the
// exact acknowledged pre-crash state — the crash-point sweep in
// crash_test.go proves query answers are byte-identical to an
// uninterrupted control for every possible crash offset.
//
// The returned dataset keeps the same WAL attached, ready for further
// durable mutations. Corruption beyond a torn tail is typed:
// ErrCorruptSnapshot for the snapshot, wal.ErrCorruptRecord for the
// log.
func Recover(snapshotPath, walPath string, opts ...Option) (*Dataset, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	pts, seq, err := loadDatasetFile(snapshotPath)
	if err != nil {
		return nil, err
	}
	log, recs, err := wal.Open(walPath, wal.Config{SyncEvery: o.syncEvery})
	if err != nil {
		return nil, fmt.Errorf("kregret: recovering WAL: %w", err)
	}
	for _, rec := range recs {
		if rec.Seq <= seq {
			continue // already folded into the snapshot by a compaction
		}
		if pts, err = replayRecord(pts, rec); err != nil {
			return nil, errors.Join(err, log.Close())
		}
		seq = rec.Seq
	}
	if len(pts) == 0 {
		return nil, errors.Join(ErrNoPoints, log.Close())
	}
	d := newDatasetFromVectors(pts, seq)
	d.muMut.Lock()
	d.wal, d.walSnap = log, snapshotPath
	d.muMut.Unlock()
	return d, nil
}
