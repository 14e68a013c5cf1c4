package kregret

// Recover's one-pass replay (replayLog) against the record-at-a-time
// replay it replaced, kept here as the oracle: both must return the
// same points (bit for bit), the same sequence number and the same
// error text on every snapshot and record sequence, including records
// at or below the watermark, out-of-range deletes, deletes that would
// empty the dataset, wrong-dimension and non-positive inserts, and
// unknown ops.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/wal"
)

// replayRecord applies one WAL record to the point slice, shifting the
// tail down on a delete. Records were validated when appended, so any
// violation here means the log does not belong to this snapshot: it
// surfaces as wal.ErrCorruptRecord.
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

// replayOracle is Recover's replay loop before the one-pass rewrite:
// skip the records a compaction already folded into the snapshot,
// apply the rest one at a time.
func replayOracle(pts []geom.Vector, seq uint64, recs []wal.Record) ([]geom.Vector, uint64, error) {
	for _, rec := range recs {
		if rec.Seq <= seq {
			continue
		}
		var err error
		if pts, err = replayRecord(pts, rec); err != nil {
			return nil, 0, err
		}
		seq = rec.Seq
	}
	return pts, seq, nil
}

// decodeReplay turns fuzzer bytes into a snapshot (1–12 points of
// dimension 1–4, coordinates in (0, 1]), its watermark and up to 64
// records, mostly valid so that long logs replay. Sequence numbers
// mostly rise by one but also repeat or fall back by one, so records
// sit at or below the running watermark; a delete index runs from −1
// to one past a running estimate of the point count, so deletes fall
// out of range and, once the count reaches one, would empty the
// dataset; an insert coordinate can be zero, negative, NaN or
// infinite; op byte 254 inserts a point of the wrong dimension and
// 255 is an unknown op.
func decodeReplay(data []byte) (pts []geom.Vector, seq uint64, recs []wal.Record) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	coord := func(b byte) float64 {
		switch b {
		case 0:
			return 0
		case 1:
			return -0.5
		case 2:
			return math.NaN()
		case 3:
			return math.Inf(1)
		}
		return float64(b) / 255
	}
	n, d := 1+int(next())%12, 1+int(next())%4
	seq = uint64(next() % 8)
	pts = make([]geom.Vector, n)
	for i := range pts {
		pts[i] = make(geom.Vector, d)
		for j := range pts[i] {
			pts[i][j] = float64(1+int(next())) / 256
		}
	}
	var s uint64
	for live := n; len(data) > 0 && len(recs) < 64; {
		op := next()
		switch step := next() % 8; {
		case step == 7 && s > 0:
			s--
		case step > 0:
			s++
		}
		rec := wal.Record{Seq: s}
		switch {
		case op < 128 || op == 254:
			rec.Op = wal.OpInsert
			dim := d
			if op == 254 {
				dim = d + 1
			}
			for j := 0; j < dim; j++ {
				rec.Point = append(rec.Point, coord(next()))
			}
			live++
		case op < 254:
			rec.Op = wal.OpDelete
			rec.Index = int(next())%(live+2) - 1
			if live > 1 {
				live--
			}
		default:
			rec.Op = wal.Op(7)
		}
		recs = append(recs, rec)
	}
	return pts, seq, recs
}

// checkReplay runs both replays over the decoded input and reports the
// first difference.
func checkReplay(data []byte) error {
	pts, seq, recs := decodeReplay(data)
	gotRows, gotSeq, gotErr := replayLog(geom.Flatten(pts), seq, recs)
	gotPts := gotRows.Views()
	wantPts, wantSeq, wantErr := replayOracle(append([]geom.Vector(nil), pts...), seq, recs)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Errorf("errors differ: one-pass %v, oracle %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Errorf("error text differs:\n one-pass %v\n oracle   %v", gotErr, wantErr)
	case gotErr != nil && !errors.Is(gotErr, wal.ErrCorruptRecord):
		return fmt.Errorf("replay error is not ErrCorruptRecord: %v", gotErr)
	case gotSeq != wantSeq:
		return fmt.Errorf("seq %d, oracle %d", gotSeq, wantSeq)
	case len(gotPts) != len(wantPts):
		return fmt.Errorf("%d points, oracle %d", len(gotPts), len(wantPts))
	}
	for i := range wantPts {
		if len(gotPts[i]) != len(wantPts[i]) {
			return fmt.Errorf("point %d has dimension %d, oracle %d", i, len(gotPts[i]), len(wantPts[i]))
		}
		for j := range wantPts[i] {
			if math.Float64bits(gotPts[i][j]) != math.Float64bits(wantPts[i][j]) {
				return fmt.Errorf("point %d coordinate %d: %x, oracle %x",
					i, j, math.Float64bits(gotPts[i][j]), math.Float64bits(wantPts[i][j]))
			}
		}
	}
	return nil
}

// FuzzRecoverReplay holds the one-pass replay to the oracle on
// fuzzer-built snapshots and logs.
func FuzzRecoverReplay(f *testing.F) {
	f.Add([]byte{})
	// Three 2-d points at watermark 1: an insert at seq 1 (skipped),
	// then mid-array deletes and inserts at rising seqs.
	f.Add([]byte{2, 1, 1, 10, 20, 30, 40, 50, 60,
		0, 1, 200, 100, 200, 1, 2, 5, 1, 90, 80, 130, 1, 2, 7, 1, 33, 44})
	// One point: deleting it would empty the dataset.
	f.Add([]byte{0, 0, 0, 77, 200, 1, 1})
	// A delete at index −1.
	f.Add([]byte{1, 1, 0, 9, 9, 9, 9, 200, 1, 0})
	// A 3-d insert into 2-d points.
	f.Add([]byte{1, 1, 0, 9, 9, 9, 9, 254, 1, 5, 5, 5})
	// A NaN coordinate.
	f.Add([]byte{1, 0, 0, 9, 9, 0, 1, 2})
	// An unknown op.
	f.Add([]byte{1, 0, 0, 9, 9, 255, 1})
	// A repeated and a regressing sequence number, both skipped.
	f.Add([]byte{3, 2, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
		0, 1, 50, 50, 50, 200, 0, 2, 0, 7, 60, 60, 60, 0, 1, 70, 70, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkReplay(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoverReplayRandomLogs runs the fuzz check over seeded random
// inputs, so every test run covers thousands of logs.
func TestRecoverReplayRandomLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(20140331))
	for i := 0; i < 5000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		if err := checkReplay(data); err != nil {
			t.Fatalf("random log %d (%x): %v", i, data, err)
		}
	}
}
