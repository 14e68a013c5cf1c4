package kregret

// Durable mutations: Insert/Delete over copy-on-write epochs, the
// write-ahead log attachment, crash recovery (Recover) and log
// compaction (Compact). See DESIGN.md §15 for the durability model.

import (
	"errors"
	"fmt"
	"math/bits"

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
	size, err := saveDatasetFile(o.walSnap, d.snap())
	if err != nil {
		return errors.Join(err, log.Close())
	}
	d.muMut.Lock()
	d.wal, d.walSnap, d.snapSize = log, o.walSnap, size
	d.muMut.Unlock()
	return nil
}

// Seq returns the sequence number of the last mutation folded into
// the current epoch (zero for a freshly constructed dataset). It is
// the dataset's logical clock: strictly increasing across mutations
// and preserved by compaction, recovery and Snapshot.
func (d *Dataset) Seq() uint64 { return d.snap().seq }

// Snapshot returns a Dataset pinned to the current epoch: a cheap
// read view sharing the epoch's points and candidate caches, immune
// to later mutations of the parent. The snapshot has no WAL — it is
// a view, not a fork of the durable history — and owns no point
// array, so its own first mutation copies the points instead of
// writing into the parent's.
func (d *Dataset) Snapshot() *Dataset {
	nd := &Dataset{}
	nd.state.Store(d.snap())
	return nd
}

// Insert appends a tuple to the dataset and returns its index (always
// Len() of the previous epoch — existing indices never move). The
// coordinates are interpreted in the dataset's current (normalized)
// space and are not renormalized: rescaling every existing point would
// silently change answers and break replay determinism. They must
// match the dataset's dimension and be finite and strictly positive.
// With a WAL attached, the mutation is durable before Insert returns;
// on error nothing changed, on disk or in memory.
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
	n, dim, data := st.rows.Len(), st.rows.Dim(), st.rows.Data()
	if len(p) != dim {
		return 0, fmt.Errorf("kregret: inserted point: %w: %d vs %d", geom.ErrDimensionMismatch, dim, len(p))
	}
	// Row n of the owned slab is unseen when the epoch is a prefix of
	// that slab and no epoch was ever published longer than n (a tail
	// Delete leaves its predecessor reading row n). Otherwise the rows
	// move to a fresh slab; append also moves them when the headroom is
	// used up. The point is written there first, and that copy, which
	// the caller cannot change any more, is what is validated, logged
	// and published; a failure takes the row back off the slab.
	if len(d.owned) != n*dim || &d.owned[0] != &data[0] {
		d.owned = append(withHeadroom(n+1, dim), data...)
	}
	d.owned = append(d.owned, p...)
	v := geom.Vector(d.owned[n*dim : (n+1)*dim : (n+1)*dim])
	if !v.IsFinite() || !v.AllPositive() {
		d.owned = d.owned[:n*dim]
		return 0, fmt.Errorf("kregret: inserted point (%v) must be finite and strictly positive", v)
	}
	seq := st.seq + 1
	if err := d.logLocked(wal.Record{Seq: seq, Op: wal.OpInsert, Point: v}); err != nil {
		d.owned = d.owned[:n*dim]
		return 0, fmt.Errorf("kregret: insert not durable: %w", err)
	}
	ns := newState(geom.NewRows(d.owned, dim), seq)
	seedAfterInsert(st, ns)
	d.state.Store(ns)
	return n, nil
}

// withHeadroom returns an empty row slab with room for n rows of
// dimension dim and 64 more, so the inserts that follow a copy write in
// place. A longer burst of inserts grows the slab through append,
// which grows it geometrically; a mid-array Delete, the copy the mutate
// workloads make most, leaves the headroom unused but for one row.
func withHeadroom(n, dim int) []float64 { return make([]float64, 0, (n+64)*dim) }

// logLocked appends rec to the WAL, if one is attached, before its
// mutation is applied. After a failed WAL operation the log may no
// longer hold every acknowledged mutation: a torn append leaves it
// unusable, and a failed write or fsync rewinds it to its last synced
// frame, which with WithSyncEvery > 1 drops records of mutations
// already acknowledged and applied. An append after that would leave
// a sequence gap that Recover replays over the wrong points, so the
// log is healed first: the compaction writes the current epoch, which
// holds every acknowledged mutation, to the base snapshot, and its
// Reset drops the log's tail. A failed compaction returns its error
// and appends nothing. Callers hold muMut.
func (d *Dataset) logLocked(rec wal.Record) error {
	if d.wal == nil {
		return nil
	}
	if d.walStale {
		if err := d.compactLocked(); err != nil {
			return err
		}
	}
	if err := d.wal.Append(rec); err != nil {
		d.walStale = true
		return err
	}
	return nil
}

// seedAfterInsert folds the previous epoch's READY candidate caches
// into the successor epoch with the incremental operators — an
// O(|sky|·d) patch instead of the O(n²·d²) from-scratch preprocess —
// before the successor is published. Cold caches stay cold: delta
// maintenance never triggers a computation the previous epoch did not
// already pay for, so purely write-heavy workloads keep O(1)
// mutations, and an Engine that never asked for the happy points
// folds only its skyline. Once the skyline is folded, the successor
// shares st's prefix-list cell when the insert kept the list's
// candidates, and otherwise gets a fresh one over its happy points
// sized from st's list (shareList), which is the one fold that fills
// a cache st did not have. The successor is unpublished here, so the
// seeds cannot race a reader.
func seedAfterInsert(st, ns *dsState) {
	if !st.skyDone.Load() {
		return
	}
	skyNew, removed, inserted, err := skyline.UpdateInsertRows(ns.rows, st.sky)
	if err != nil {
		return // impossible for a consistent cache; fall back to lazy recompute
	}
	seedOnce(&ns.skyMu, &ns.skyDone, func() { ns.sky = skyNew })
	if st.happyDone.Load() && st.cert != nil {
		cert := happy.UpdateInsertRows(ns.rows, st.cert, skyNew, removed, inserted)
		seedOnce(&ns.happyMu, &ns.happyDone, func() { ns.cert, ns.happy = cert, cert.HappyPoints() })
	}
	shareList(st, ns, -1)
}

// seedAfterDelete is seedAfterInsert's counterpart for Delete: st is
// the pre-delete epoch (whose caches use pre-delete indices), ns the
// shifted successor.
func seedAfterDelete(st, ns *dsState, delIdx int) {
	if !st.skyDone.Load() {
		return
	}
	skyNew, entrants, wasSky, err := skyline.UpdateDeleteRows(st.rows, st.sky, delIdx)
	if err != nil {
		return
	}
	seedOnce(&ns.skyMu, &ns.skyDone, func() { ns.sky = skyNew })
	if st.happyDone.Load() && st.cert != nil {
		cert := happy.UpdateDeleteRows(ns.rows, st.cert, delIdx, skyNew, entrants, wasSky)
		seedOnce(&ns.happyMu, &ns.happyDone, func() { ns.cert, ns.happy = cert, cert.HappyPoints() })
	}
	shareList(st, ns, delIdx)
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
	n := st.rows.Len()
	if i < 0 || i >= n {
		return fmt.Errorf("kregret: delete index %d out of range (n=%d)", i, n)
	}
	if n == 1 {
		return fmt.Errorf("kregret: delete would leave the dataset empty: %w", ErrNoPoints)
	}
	seq := st.seq + 1
	if err := d.logLocked(wal.Record{Seq: seq, Op: wal.OpDelete, Index: i}); err != nil {
		return fmt.Errorf("kregret: delete not durable: %w", err)
	}
	rows := st.rows.Slice(0, i)
	if i < n-1 {
		// Indices after i shift down by contract, so a mid-array delete
		// copies the rows — one pointer-free copy, into a fresh owned
		// slab with headroom, so the inserts that follow it write in
		// place.
		dim, data := st.rows.Dim(), st.rows.Data()
		d.owned = append(append(withHeadroom(n-1, dim), data[:i*dim]...), data[(i+1)*dim:]...)
		rows = geom.NewRows(d.owned, dim)
	}
	// Deleting the tail copies nothing: the predecessor keeps reading
	// its longer prefix of the same slab, and since the owned slab's
	// length (the high-water mark) stays above the new length, the next
	// Insert copies instead of overwriting row i.
	ns := newState(rows, seq)
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
	return d.compactLocked()
}

// compactLocked is Compact with muMut held and a WAL attached. It
// records the new snapshot's size as soon as the snapshot is on disk:
// a failed Reset leaves that snapshot in place, and the log, which
// may now refuse appends, is healed by the next mutation.
func (d *Dataset) compactLocked() error {
	size, err := saveDatasetFile(d.walSnap, d.snap())
	if err != nil {
		return err
	}
	d.snapSize = size
	if err := d.wal.Reset(); err != nil {
		d.walStale = true
		return fmt.Errorf("kregret: compacting WAL: %w", err)
	}
	d.walStale = false
	return nil
}

// compactIfOutgrown compacts once the log is larger than the base
// snapshot it extends, which is the Engine fold's compaction trigger.
// Each mutation then writes its log record plus, amortized, about as
// many snapshot bytes, and the two files stay within about twice the
// snapshot, which also bounds the log Recover replays (DESIGN.md
// §15). A dataset without a WAL (or after Close) never compacts.
func (d *Dataset) compactIfOutgrown() error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.wal == nil || d.wal.Size() <= d.snapSize {
		return nil
	}
	return d.compactLocked()
}

// SyncWAL forces any fsync-batched mutations (WithSyncEvery > 1) to
// disk, bounding the acknowledgment lag explicitly. A failed sync
// rewinds the log past those mutations, so the next mutation first
// compacts them into the base snapshot.
func (d *Dataset) SyncWAL() error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.wal == nil {
		return ErrWALRequired
	}
	if err := d.wal.Sync(); err != nil {
		d.walStale = true
		return err
	}
	return nil
}

// ErrClosed is returned by mutations on a dataset whose WAL was
// closed: accepting them would silently drop durability.
var ErrClosed = errors.New("kregret: dataset closed")

// Close syncs and closes the WAL (a no-op on a dataset that never had
// one). If a failed append or sync left the log without acknowledged
// mutations, Close first compacts them into the base snapshot. The
// dataset remains queryable after Close; further mutations return
// ErrClosed.
func (d *Dataset) Close() error {
	d.muMut.Lock()
	defer d.muMut.Unlock()
	if d.wal == nil {
		return nil
	}
	var err error
	if d.walStale {
		err = d.compactLocked()
	}
	err = errors.Join(err, d.wal.Close())
	d.wal = nil
	d.walClosed = true
	return err
}

// replayLog applies the log records past the snapshot's watermark
// seq to its rows in one pass, returning the surviving rows and the
// last applied sequence number. Each insert takes a fresh row at the
// end of one slab, each delete kills the i-th live row, found through
// a Fenwick tree over the live flags, and the survivors are compacted
// once in row order: O((n+r)·log(n+r)) for r records instead of an
// O(n) memmove per mid-array delete. rows must be non-empty, as every
// loaded snapshot is. Records were validated when appended, so any
// violation here means the log does not belong to this snapshot (or
// was corrupted in a way the CRC cannot see): it surfaces as
// wal.ErrCorruptRecord, never as a silently-wrong dataset. The tests
// hold it to a record-at-a-time oracle, error text included.
func replayLog(rows geom.Rows, seq uint64, recs []wal.Record) (geom.Rows, uint64, error) {
	// Records at or below the running watermark were already folded
	// into the snapshot by a compaction.
	inserts, s := 0, seq
	for _, rec := range recs {
		if rec.Seq > s {
			if rec.Op == wal.OpInsert {
				inserts++
			}
			s = rec.Seq
		}
	}
	if s == seq {
		return rows, seq, nil
	}
	n, dim := rows.Len(), rows.Dim()
	slab := append(make([]float64, 0, (n+inserts)*dim), rows.Data()...)
	live := newLiveSlots(n, n+inserts)
	for _, rec := range recs {
		if rec.Seq <= seq {
			continue
		}
		switch rec.Op {
		case wal.OpInsert:
			v := geom.Vector(rec.Point)
			if len(v) != dim {
				return geom.Rows{}, 0, fmt.Errorf("%w: replayed insert (seq %d) has dimension %d, want %d",
					wal.ErrCorruptRecord, rec.Seq, len(v), dim)
			}
			if !v.IsFinite() || !v.AllPositive() {
				return geom.Rows{}, 0, fmt.Errorf("%w: replayed insert (seq %d) is not finite and strictly positive",
					wal.ErrCorruptRecord, rec.Seq)
			}
			live.add(len(slab)/dim, 1)
			slab = append(slab, v...)
			n++
		case wal.OpDelete:
			if rec.Index < 0 || rec.Index >= n {
				return geom.Rows{}, 0, fmt.Errorf("%w: replayed delete (seq %d) index %d out of range (n=%d)",
					wal.ErrCorruptRecord, rec.Seq, rec.Index, n)
			}
			if n == 1 {
				return geom.Rows{}, 0, fmt.Errorf("%w: replayed delete (seq %d) would empty the dataset",
					wal.ErrCorruptRecord, rec.Seq)
			}
			live.kill(rec.Index)
			n--
		default:
			return geom.Rows{}, 0, fmt.Errorf("%w: replayed record (seq %d) has unknown op %d", wal.ErrCorruptRecord, rec.Seq, rec.Op)
		}
		seq = rec.Seq
	}
	// Compact the live rows in place: a live row only ever moves down.
	live.flags()
	out := 0
	for r := 0; r < len(slab)/dim; r++ {
		if live[r+1] == 1 {
			copy(slab[out*dim:(out+1)*dim], slab[r*dim:(r+1)*dim])
			out++
		}
	}
	return geom.NewRows(slab[:n*dim], dim), seq, nil
}

// liveSlots is a Fenwick tree over replay's 0/1 live flags, 1-based:
// it finds and clears the i-th live slot in O(log m).
type liveSlots []int32

// newLiveSlots returns the tree over m slots whose first n are live,
// built in O(m).
func newLiveSlots(n, m int) liveSlots {
	t := make(liveSlots, m+1)
	for i := 1; i <= m; i++ {
		if i <= n {
			t[i]++
		}
		if j := i + i&-i; j <= m {
			t[j] += t[i]
		}
	}
	return t
}

// add adds delta to slot i's flag (i is 0-based).
func (t liveSlots) add(i int, delta int32) {
	for i++; i < len(t); i += i & -i {
		t[i] += delta
	}
}

// flags turns the tree back into the flags it sums, t[i+1] the flag of
// slot i: the O(m) build run backwards, each node handing back what it
// gave its parent.
func (t liveSlots) flags() {
	for i := len(t) - 1; i >= 1; i-- {
		if j := i + i&-i; j < len(t) {
			t[j] -= t[i]
		}
	}
}

// kill clears the k-th live slot (0-based) and returns its index: the
// descent finds the longest prefix holding at most k live slots, and
// the slot just past it is the k-th.
func (t liveSlots) kill(k int) int {
	pos, rem := 0, int32(k+1)
	for step := 1 << (bits.Len(uint(len(t)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(t) && t[next] < rem {
			pos = next
			rem -= t[next]
		}
	}
	t.add(pos, -1)
	return pos
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
	o := resolveOptions(opts)
	rows, seq, size, err := loadDatasetFile(snapshotPath)
	if err != nil {
		return nil, err
	}
	log, recs, err := wal.Open(walPath, wal.Config{SyncEvery: o.syncEvery})
	if err != nil {
		return nil, fmt.Errorf("kregret: recovering WAL: %w", err)
	}
	if rows, seq, err = replayLog(rows, seq, recs); err != nil {
		return nil, errors.Join(err, log.Close())
	}
	d := newDatasetFromRows(rows, seq)
	d.muMut.Lock()
	d.wal, d.walSnap, d.snapSize = log, snapshotPath, size
	d.muMut.Unlock()
	return d, nil
}
