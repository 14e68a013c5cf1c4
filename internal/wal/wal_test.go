package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// LastSeq returns the sequence number of the last written record
// (zero for an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// testRecords is a small mutation history covering both ops and
// awkward float bit patterns (negative zero, subnormal, huge).
func testRecords() []Record {
	return []Record{
		{Seq: 1, Op: OpInsert, Point: []float64{0.25, 0.75, 0.5}},
		{Seq: 2, Op: OpInsert, Point: []float64{math.Copysign(0, -1), 5e-324, 1e300}},
		{Seq: 3, Op: OpDelete, Index: 0},
		{Seq: 5, Op: OpInsert, Point: []float64{0.125}},
		{Seq: 8, Op: OpDelete, Index: 2},
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Op != w.Op || g.Index != w.Index || len(g.Point) != len(w.Point) {
			t.Fatalf("record %d: got %+v, want %+v", i, g, w)
		}
		for j := range w.Point {
			if math.Float64bits(g.Point[j]) != math.Float64bits(w.Point[j]) {
				t.Fatalf("record %d coordinate %d: got bits %016x, want %016x",
					i, j, math.Float64bits(g.Point[j]), math.Float64bits(w.Point[j]))
			}
		}
	}
}

// buildLog writes recs into a fresh log file and returns its path and
// raw bytes.
func buildLog(t *testing.T, recs []Record) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mut.wal")
	l, prior, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh log replayed %d records", len(prior))
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append(%+v): %v", rec, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return path, data
}

func TestAppendReopenRoundTrip(t *testing.T) {
	recs := testRecords()
	path, _ := buildLog(t, recs)

	l, got, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	sameRecords(t, got, recs)
	if l.LastSeq() != 8 {
		t.Fatalf("LastSeq = %d, want 8", l.LastSeq())
	}

	// The log must keep accepting appends after a reopen.
	next := Record{Seq: 9, Op: OpInsert, Point: []float64{0.5, 0.5}}
	if err := l.Append(next); err != nil {
		t.Fatalf("post-reopen Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, got, err = Open(path, Config{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	sameRecords(t, got, append(recs, next))
}

// TestTornTailEveryByte is the kill-at-every-byte matrix: for every
// possible crash offset — the file cut to each prefix length — Open
// must recover exactly the records whose frames are complete, truncate
// the torn residue, and leave a log that accepts new appends. No
// offset may produce an error or a garbage record.
func TestTornTailEveryByte(t *testing.T) {
	recs := testRecords()
	_, data := buildLog(t, recs)

	// Record the byte boundary after each frame so every prefix length
	// maps to its expected replay.
	bounds := []int64{headerLen}
	{
		r, good, err := scan(data)
		if err != nil || good != int64(len(data)) {
			t.Fatalf("scan of intact log: good=%d err=%v", good, err)
		}
		off := int64(headerLen)
		for i := range r {
			off += int64(len(encodeFrame(recs[i])))
			bounds = append(bounds, off)
		}
	}
	completeAt := func(cut int) int {
		n := 0
		for i := 1; i < len(bounds); i++ {
			if int64(cut) >= bounds[i] {
				n = i
			}
		}
		return n
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatalf("cut=%d: WriteFile: %v", cut, err)
		}
		l, got, err := Open(path, Config{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		want := recs[:completeAt(cut)]
		sameRecords(t, got, want)

		// The torn residue must be gone from disk and the log must
		// accept the very mutation the crash interrupted.
		if fi, err := os.Stat(path); err != nil {
			t.Fatalf("cut=%d: Stat: %v", cut, err)
		} else if cut >= headerLen && fi.Size() > int64(cut) {
			t.Fatalf("cut=%d: file grew to %d bytes on open", cut, fi.Size())
		}
		retry := Record{Seq: 100, Op: OpInsert, Point: []float64{0.5}}
		if err := l.Append(retry); err != nil {
			t.Fatalf("cut=%d: post-recovery Append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		_, again, err := Open(path, Config{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		sameRecords(t, again, append(append([]Record(nil), want...), retry))
	}
}

// TestBitFlipNeverGarbage flips every bit of a complete log and
// checks the failure is always contained: Open either reports a typed
// error (ErrCorruptRecord, or a version mismatch when the flip lands
// in the header) or recovers a strict prefix of the original records —
// never a record that was not written, never a panic.
func TestBitFlipNeverGarbage(t *testing.T) {
	recs := testRecords()
	_, data := buildLog(t, recs)

	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			path := filepath.Join(t.TempDir(), "flip.wal")
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatalf("pos=%d bit=%d: WriteFile: %v", pos, bit, err)
			}
			l, got, err := Open(path, Config{})
			if err != nil {
				if pos >= headerLen && !errors.Is(err, ErrCorruptRecord) {
					t.Fatalf("pos=%d bit=%d: error not ErrCorruptRecord: %v", pos, bit, err)
				}
				continue
			}
			l.Close()
			if len(got) > len(recs) {
				t.Fatalf("pos=%d bit=%d: recovered %d records from a %d-record log", pos, bit, len(got), len(recs))
			}
			sameRecords(t, got, recs[:len(got)])
		}
	}
}

func TestReplayMatchesOpen(t *testing.T) {
	recs := testRecords()
	_, data := buildLog(t, recs)

	got, err := Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	sameRecords(t, got, recs)

	// Torn tails replay the complete prefix, silently.
	got, err = Replay(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatalf("Replay(torn): %v", err)
	}
	sameRecords(t, got, recs[:len(recs)-1])

	// Empty and torn-header images carry no acknowledged records.
	for _, img := range [][]byte{nil, data[:3]} {
		got, err = Replay(bytes.NewReader(img))
		if err != nil || len(got) != 0 {
			t.Fatalf("Replay(%d bytes): got %d records, err %v", len(img), len(got), err)
		}
	}

	// A foreign file is corruption, not an empty log.
	if _, err := Replay(bytes.NewReader([]byte("GIF89a-definitely-not-a-wal"))); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Replay(foreign) = %v, want ErrCorruptRecord", err)
	}
}

func TestAppendRejectsInvalidRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mut.wal")
	l, _, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Append(Record{Seq: 1, Op: OpInsert, Point: []float64{0.5}}); err != nil {
		t.Fatalf("seed append: %v", err)
	}

	bad := []Record{
		{Seq: 2, Op: OpInsert},                         // no coordinates
		{Seq: 2, Op: OpDelete, Index: -1},              // negative index
		{Seq: 2, Op: Op(9), Index: 1},                  // unknown op
		{Seq: 1, Op: OpDelete, Index: 0},               // seq replay
		{Seq: 0, Op: OpInsert, Point: []float64{0.25}}, // seq regression
	}
	for _, rec := range bad {
		if err := l.Append(rec); err == nil {
			t.Fatalf("Append(%+v) succeeded, want error", rec)
		}
	}
	// Rejections must leave the log fully usable.
	if err := l.Append(Record{Seq: 2, Op: OpDelete, Index: 0}); err != nil {
		t.Fatalf("append after rejections: %v", err)
	}
}

func TestResetTruncatesAndPreservesSeq(t *testing.T) {
	recs := testRecords()
	path, _ := buildLog(t, recs)
	l, _, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Size() != headerLen {
		t.Fatalf("Size after Reset = %d, want %d", l.Size(), headerLen)
	}
	// Sequence numbers survive the reset: re-using a compacted seq
	// must fail, the next fresh one must work.
	if err := l.Append(Record{Seq: 8, Op: OpDelete, Index: 0}); err == nil {
		t.Fatal("Append with compacted seq succeeded, want error")
	}
	next := Record{Seq: 9, Op: OpInsert, Point: []float64{0.75}}
	if err := l.Append(next); err != nil {
		t.Fatalf("Append after Reset: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, got, err := Open(path, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sameRecords(t, got, []Record{next})
}

// TestSyncBatching checks SyncEvery > 1 defers the fsync: the unsynced
// suffix is still in the file (written, not yet durable) and an
// explicit Sync acknowledges it.
func TestSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mut.wal")
	l, _, err := Open(path, Config{SyncEvery: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 2; seq++ {
		if err := l.Append(Record{Seq: seq, Op: OpInsert, Point: []float64{0.5}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.mu.Lock()
	pending, synced, off := l.pending, l.synced, l.off
	l.mu.Unlock()
	if pending != 2 || synced != headerLen || off <= synced {
		t.Fatalf("pending=%d synced=%d off=%d, want 2 pending past header", pending, synced, off)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.mu.Lock()
	pending, synced, off = l.pending, l.synced, l.off
	l.mu.Unlock()
	if pending != 0 || synced != off {
		t.Fatalf("after Sync: pending=%d synced=%d off=%d", pending, synced, off)
	}
}

func TestOpenRejectsForeignAndFutureFiles(t *testing.T) {
	dir := t.TempDir()

	foreign := filepath.Join(dir, "foreign.wal")
	if err := os.WriteFile(foreign, []byte("PNG\x89 not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(foreign, Config{}); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Open(foreign) = %v, want ErrCorruptRecord", err)
	}

	future := filepath.Join(dir, "future.wal")
	if err := os.WriteFile(future, append([]byte(logMagic), 99), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(future, Config{}); err == nil {
		t.Fatal("Open(future version) succeeded, want error")
	}
}
