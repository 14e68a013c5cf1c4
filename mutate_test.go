package kregret

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// mutGrid returns a small 2-D dataset with a non-trivial skyline.
func mutGrid(t *testing.T, opts ...Option) *Dataset {
	t.Helper()
	ds, err := NewDataset([]Point{
		{1.0, 0.1}, {0.1, 1.0}, {0.8, 0.8}, {0.5, 0.5}, {0.3, 0.9}, {0.9, 0.3},
	}, append([]Option{WithoutNormalization()}, opts...)...)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return ds
}

func sameAnswerBits(t *testing.T, got, want *Answer) {
	t.Helper()
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("selection sizes differ: %v vs %v", got.Indices, want.Indices)
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("selection differs at %d: %v vs %v", i, got.Indices, want.Indices)
		}
	}
	if math.Float64bits(got.MRR) != math.Float64bits(want.MRR) {
		t.Fatalf("MRR bits differ: %016x vs %016x", math.Float64bits(got.MRR), math.Float64bits(want.MRR))
	}
}

func TestInsertDeleteSemantics(t *testing.T) {
	ds := mutGrid(t)
	if ds.Seq() != 0 {
		t.Fatalf("fresh Seq = %d, want 0", ds.Seq())
	}

	idx, err := ds.Insert(Point{0.95, 0.95})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if idx != 6 || ds.Len() != 7 || ds.Seq() != 1 {
		t.Fatalf("after insert: idx=%d len=%d seq=%d", idx, ds.Len(), ds.Seq())
	}
	p := ds.Point(6)
	if p[0] != 0.95 || p[1] != 0.95 {
		t.Fatalf("inserted point reads back as %v", p)
	}
	// The dominant new point must join the skyline.
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatalf("Skyline: %v", err)
	}
	found := false
	for _, s := range sky {
		if s == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted dominant point missing from skyline %v", sky)
	}

	// Delete shifts later indices down by one.
	before := ds.Point(4)
	if err := ds.Delete(3); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if ds.Len() != 6 || ds.Seq() != 2 {
		t.Fatalf("after delete: len=%d seq=%d", ds.Len(), ds.Seq())
	}
	after := ds.Point(3)
	if after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("index shift broken: %v vs %v", after, before)
	}

	// Invalid mutations are rejected without changing anything.
	if _, err := ds.Insert(Point{0.5}); err == nil {
		t.Fatal("dimension-mismatched insert succeeded")
	}
	if _, err := ds.Insert(Point{0.5, math.NaN()}); err == nil {
		t.Fatal("NaN insert succeeded")
	}
	if _, err := ds.Insert(Point{0.5, -1}); err == nil {
		t.Fatal("negative insert succeeded")
	}
	if err := ds.Delete(-1); err == nil {
		t.Fatal("negative delete succeeded")
	}
	if err := ds.Delete(ds.Len()); err == nil {
		t.Fatal("out-of-range delete succeeded")
	}
	if ds.Seq() != 2 {
		t.Fatalf("rejected mutations advanced seq to %d", ds.Seq())
	}

	// The last point can never be deleted.
	for ds.Len() > 1 {
		if err := ds.Delete(0); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := ds.Delete(0); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("deleting last point = %v, want ErrNoPoints", err)
	}
}

// TestEpochIsolation proves copy-on-write: a snapshot taken before a
// mutation keeps answering byte-identically afterwards, and the
// mutated dataset diverges.
func TestEpochIsolation(t *testing.T) {
	ds := mutGrid(t)
	snap := ds.Snapshot()
	control, err := snap.Query(2)
	if err != nil {
		t.Fatalf("control query: %v", err)
	}

	// A dominating insert changes the mutated dataset's answer...
	if _, err := ds.Insert(Point{1.0, 1.0}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	mutated, err := ds.Query(2)
	if err != nil {
		t.Fatalf("mutated query: %v", err)
	}
	foundNew := false
	for _, i := range mutated.Indices {
		if i == 6 {
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatalf("dominating insert not selected: %v", mutated.Indices)
	}

	// ...while the pre-mutation snapshot is bit-for-bit unchanged.
	again, err := snap.Query(2)
	if err != nil {
		t.Fatalf("snapshot query: %v", err)
	}
	sameAnswerBits(t, again, control)
	if snap.Len() != 6 || ds.Len() != 7 {
		t.Fatalf("lengths: snap=%d ds=%d", snap.Len(), ds.Len())
	}
}

func TestWALDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mut.wal")
	snapPath := filepath.Join(dir, "base.krgd")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	defer ds.Close()

	if _, err := ds.Insert(Point{0.95, 0.95}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := ds.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	want, err := ds.Query(3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}

	// A "crashed" process recovers the exact state: same length, same
	// seq, byte-identical answers. (No Close — the files are as a kill
	// would leave them, modulo the torn tail which needs fault injection
	// or the crash matrix to produce.)
	rec, err := Recover(snapPath, walPath)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	if rec.Len() != ds.Len() || rec.Seq() != ds.Seq() {
		t.Fatalf("recovered len=%d seq=%d, want len=%d seq=%d", rec.Len(), rec.Seq(), ds.Len(), ds.Seq())
	}
	got, err := rec.Query(3)
	if err != nil {
		t.Fatalf("recovered Query: %v", err)
	}
	sameAnswerBits(t, got, want)

	// The recovered dataset continues the same durable history.
	if _, err := rec.Insert(Point{0.2, 0.85}); err != nil {
		t.Fatalf("post-recovery Insert: %v", err)
	}
	if rec.Seq() != ds.Seq()+1 {
		t.Fatalf("post-recovery seq = %d, want %d", rec.Seq(), ds.Seq()+1)
	}
}

func TestCompactTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mut.wal")
	snapPath := filepath.Join(dir, "base.krgd")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	defer ds.Close()

	for i := 0; i < 8; i++ {
		if _, err := ds.Insert(Point{0.40 + float64(i)/100, 0.40}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	grown, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	compacted, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", grown.Size(), compacted.Size())
	}

	// Post-compaction mutations land in the truncated log; recovery
	// folds snapshot + suffix.
	if err := ds.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	want, err := ds.Query(2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rec, err := Recover(snapPath, walPath)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	if rec.Len() != ds.Len() || rec.Seq() != ds.Seq() {
		t.Fatalf("recovered len=%d seq=%d, want len=%d seq=%d", rec.Len(), rec.Seq(), ds.Len(), ds.Seq())
	}
	got, err := rec.Query(2)
	if err != nil {
		t.Fatalf("recovered Query: %v", err)
	}
	sameAnswerBits(t, got, want)
}

func TestWithWALRefusesExistingHistory(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mut.wal")
	snapPath := filepath.Join(dir, "base.krgd")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	if _, err := ds.Insert(Point{0.9, 0.9}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Building a fresh dataset over a log that holds history would
	// orphan it; the constructor must refuse.
	if _, err := NewDataset([]Point{{0.5, 0.5}}, WithoutNormalization(), WithWAL(walPath, snapPath)); err == nil {
		t.Fatal("NewDataset over a non-empty WAL succeeded")
	}
	// Recover is the sanctioned way in.
	rec, err := Recover(snapPath, walPath)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 7 {
		t.Fatalf("recovered %d points, want 7", rec.Len())
	}
}

func TestCloseStopsMutations(t *testing.T) {
	dir := t.TempDir()
	ds := mutGrid(t, WithWAL(filepath.Join(dir, "mut.wal"), filepath.Join(dir, "base.krgd")))
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ds.Insert(Point{0.5, 0.5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
	if err := ds.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := ds.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	// Queries still work: Close only ends durability, not reads.
	if _, err := ds.Query(2); err != nil {
		t.Fatalf("Query after Close: %v", err)
	}
	// A WAL-less dataset mutates fine (just not durably) and Compact
	// explains what is missing.
	plain := mutGrid(t)
	if _, err := plain.Insert(Point{0.9, 0.9}); err != nil {
		t.Fatalf("WAL-less Insert: %v", err)
	}
	if err := plain.Compact(); !errors.Is(err, ErrWALRequired) {
		t.Fatalf("WAL-less Compact = %v, want ErrWALRequired", err)
	}
}

func TestRecoverCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mut.wal")
	snapPath := filepath.Join(dir, "base.krgd")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip every byte: recovery must always fail typed, never
	// return a silently-wrong dataset.
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(snapPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(snapPath, walPath); err == nil {
			t.Fatalf("Recover with snapshot byte %d flipped succeeded", pos)
		} else if pos >= 5 && !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("pos %d: error not ErrCorruptSnapshot: %v", pos, err)
		}
	}
	// Truncations too.
	for cut := 0; cut < len(data); cut += 7 {
		if err := os.WriteFile(snapPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(snapPath, walPath); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("Recover with snapshot cut to %d = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
	// A CRC-valid frame whose n·d wraps around to the number of
	// coordinates it carries (zero): the shape is structurally
	// impossible, not a huge allocation.
	const wrapN, wrapDim = 1 << 62, 4
	wrapped := binary.LittleEndian.AppendUint64(make([]byte, 8), wrapN) // seq 0
	wrapped = binary.LittleEndian.AppendUint64(wrapped, wrapDim)
	if err := os.WriteFile(snapPath, frameSnapshot(dsSnapMagic, dsSnapVersion, wrapped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(snapPath, walPath); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Recover with a %d×%d snapshot of no coordinates = %v, want ErrCorruptSnapshot", uint64(wrapN), wrapDim, err)
	}
	// A frame of version 1, whose payload was a gob stream, is a file
	// of another format, not damage: the version error names both.
	v1 := frameSnapshot(dsSnapMagic, 1, data[snapshotHdrLen:len(data)-4])
	if err := os.WriteFile(snapPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(snapPath, walPath); err == nil || errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "v1, want v2") {
		t.Fatalf("Recover of a v1 snapshot = %v, want the version error naming v1 and v2", err)
	}
}

func TestRecoverForeignLog(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mut.wal")
	snapPath := filepath.Join(dir, "base.krgd")
	ds := mutGrid(t, WithWAL(walPath, snapPath))
	if _, err := ds.Insert(Point{0.9, 0.9}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A log whose records cannot belong to this snapshot — a delete
	// past the dataset's length, an insert of the wrong dimension — is
	// typed corruption, never a silently-wrong dataset.
	for _, rec := range []wal.Record{
		{Seq: 2, Op: wal.OpDelete, Index: 99},
		{Seq: 2, Op: wal.OpInsert, Point: []float64{0.5, 0.5, 0.5}},
	} {
		if err := os.Remove(walPath); err != nil {
			t.Fatal(err)
		}
		l, _, err := wal.Open(walPath, wal.Config{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := l.Append(wal.Record{Seq: 1, Op: wal.OpInsert, Point: []float64{0.9, 0.9}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := Recover(snapPath, walPath); !errors.Is(err, wal.ErrCorruptRecord) {
			t.Fatalf("Recover(mismatched log %+v) = %v, want wal.ErrCorruptRecord", rec, err)
		}
	}
}
