// Package wal is the write-ahead log behind mutable datasets: an
// append-only file of insert/delete records, each length-prefixed and
// protected by its own CRC-32C, so the durable mutation history can be
// replayed over the last compacted snapshot after a crash.
//
// File layout:
//
//	offset 0  magic "KRGW" (4 bytes)
//	       4  format version (1 byte, currently 1)
//	       5  records, back to back
//
// Each record is framed as
//
//	uint32 payload length (little-endian)
//	payload
//	uint32 CRC-32C over the length prefix and the payload
//
// and the payload is op-specific binary (see Record.appendWire). The
// two corruption regimes are deliberately distinguished on open:
//
//   - a record cut short by end-of-file is a torn tail — the residue
//     of a crash mid-append — and is silently truncated away, because
//     a record that never finished writing was never acknowledged;
//   - a fully-present record whose CRC or structure is wrong is
//     ErrCorruptRecord — bit rot or a foreign file — and fails the
//     open loudly, because dropping it could silently lose a mutation
//     that WAS acknowledged.
//
// Appends are acknowledged only after the configured sync policy ran:
// with SyncEvery=1 (the default) every Append fsyncs before returning,
// so an acknowledged mutation survives any crash; larger batches trade
// that for throughput, losing at most the unsynced suffix. A failed
// write or sync rewinds the file to the last synced offset so a failed
// Append leaves no trace. With SyncEvery > 1 the rewind also drops the
// unsynced records of earlier appends that were acknowledged, so the
// caller must persist its state another way (the dataset compacts)
// before it appends again: the next record would follow a sequence
// gap.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/fault"
)

// Errors returned by the log.
var (
	// ErrCorruptRecord reports a fully-present record that fails its
	// CRC or structural validation — corruption that truncation cannot
	// explain, so it is never silently dropped.
	ErrCorruptRecord = errors.New("wal: corrupt record")

	// ErrLogUnusable reports that an earlier failed append or sync
	// could not be rewound; the log refuses further appends until a
	// Reset (compaction) gives it a fresh tail.
	ErrLogUnusable = errors.New("wal: log unusable after earlier failure")

	// ErrLogVersion reports a log written by a format version this
	// build does not know — not corruption, but a file that must be
	// read by the build that wrote it.
	ErrLogVersion = errors.New("wal: unsupported log format version")
)

const (
	logMagic   = "KRGW"
	logVersion = 1
	headerLen  = 5
	// maxRecordLen caps a record payload so a corrupt length prefix
	// cannot drive an attacker-chosen allocation.
	maxRecordLen = 1 << 20
	// maxDim bounds the per-record point dimensionality; it matches
	// maxRecordLen (a coordinate is 8 bytes plus framing).
	maxDim = 1 << 16
)

var logCRC = crc32.MakeTable(crc32.Castagnoli)

// Op is the mutation kind a record carries.
type Op uint8

// Record operations.
const (
	// OpInsert appends Point to the dataset.
	OpInsert Op = 1
	// OpDelete removes the point at Index.
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Record is one durable mutation. Seq is the mutation's position in
// the dataset's total order: strictly increasing across the life of
// the dataset (compaction does not reset it), which is what lets
// replay skip records already folded into a snapshot.
type Record struct {
	Seq   uint64
	Op    Op
	Index int       // delete target (OpDelete only)
	Point []float64 // inserted coordinates (OpInsert only)
}

// wireManifest pins the hand-rolled binary wire layout of every
// record struct this package persists (checked by the wireguard
// analyzer via the appendWire convention): changing a field means
// rewriting the entry on this line, which is where the format-version
// bump and the decoder's compat path get reviewed together.
var wireManifest = map[string]string{
	"Record": "v1 Seq uint64; Op Op; Index int; Point []float64",
}

// appendWire encodes the record payload: op tag, sequence number,
// then the op-specific body (dimension-prefixed coordinates for an
// insert, the target index for a delete).
func (r Record) appendWire(dst []byte) []byte {
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	switch r.Op {
	case OpInsert:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Point)))
		for _, x := range r.Point {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case OpDelete:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Index))
	}
	return dst
}

// decodeWire is appendWire's strict inverse: every byte of payload
// must be consumed and every field must be structurally plausible, so
// a CRC collision on garbage still cannot smuggle in a bogus record.
func decodeWire(payload []byte) (Record, error) {
	if len(payload) < 1+8 {
		return Record{}, fmt.Errorf("%w: payload of %d bytes", ErrCorruptRecord, len(payload))
	}
	rec := Record{Op: Op(payload[0]), Seq: binary.LittleEndian.Uint64(payload[1:])}
	body := payload[9:]
	switch rec.Op {
	case OpInsert:
		if len(body) < 4 {
			return Record{}, fmt.Errorf("%w: insert record missing dimension", ErrCorruptRecord)
		}
		dim := binary.LittleEndian.Uint32(body)
		if dim == 0 || dim > maxDim {
			return Record{}, fmt.Errorf("%w: insert record dimension %d", ErrCorruptRecord, dim)
		}
		if len(body) != 4+int(dim)*8 {
			return Record{}, fmt.Errorf("%w: insert record has %d body bytes for dimension %d", ErrCorruptRecord, len(body), dim)
		}
		rec.Point = make([]float64, dim)
		for i := range rec.Point {
			rec.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[4+i*8:]))
		}
	case OpDelete:
		if len(body) != 4 {
			return Record{}, fmt.Errorf("%w: delete record has %d body bytes", ErrCorruptRecord, len(body))
		}
		rec.Index = int(binary.LittleEndian.Uint32(body))
	default:
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorruptRecord, payload[0])
	}
	return rec, nil
}

// encodeFrame wraps the record payload in its length prefix and CRC
// trailer.
func encodeFrame(rec Record) []byte {
	payload := rec.appendWire(make([]byte, 0, 64))
	frame := make([]byte, 4, 4+len(payload)+4)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, logCRC))
}

// validate rejects records that must never reach the file: they would
// decode as corruption, so failing the append is the honest move.
func validate(rec Record) error {
	switch rec.Op {
	case OpInsert:
		if len(rec.Point) == 0 || len(rec.Point) > maxDim {
			return fmt.Errorf("wal: insert record with %d coordinates", len(rec.Point))
		}
	case OpDelete:
		if rec.Index < 0 || int64(rec.Index) > int64(^uint32(0)) {
			return fmt.Errorf("wal: delete record with index %d", rec.Index)
		}
	default:
		return fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	return nil
}

// scan parses the record region of a log image. It returns the parsed
// records, the offset just past the last complete record (the torn
// tail, if any, lies beyond it), and ErrCorruptRecord for damage that
// truncation cannot explain.
func scan(data []byte) (recs []Record, good int64, err error) {
	off := headerLen
	var lastSeq uint64
	for off < len(data) {
		if len(data)-off < 4 {
			break // torn length prefix
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if n == 0 || n > maxRecordLen {
			return nil, int64(off), fmt.Errorf("%w: implausible record length %d at offset %d", ErrCorruptRecord, n, off)
		}
		end := off + 4 + int(n) + 4
		if end > len(data) {
			break // torn payload or CRC
		}
		stored := binary.LittleEndian.Uint32(data[off+4+int(n):])
		if computed := crc32.Checksum(data[off:off+4+int(n)], logCRC); stored != computed {
			return nil, int64(off), fmt.Errorf("%w: CRC mismatch at offset %d (stored %08x, computed %08x)", ErrCorruptRecord, off, stored, computed)
		}
		rec, derr := decodeWire(data[off+4 : off+4+int(n)])
		if derr != nil {
			return nil, int64(off), derr
		}
		if rec.Seq <= lastSeq {
			return nil, int64(off), fmt.Errorf("%w: sequence regressed %d -> %d at offset %d", ErrCorruptRecord, lastSeq, rec.Seq, off)
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		off = end
	}
	return recs, int64(off), nil
}

// Replay parses a complete log image from r: the records of every
// fully-written frame, in order. A torn tail (the residue of a crash
// mid-append) is ignored exactly as Open would truncate it; structural
// corruption is ErrCorruptRecord. An empty or header-only image yields
// no records and no error.
func Replay(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < headerLen {
		return nil, nil // torn header: the crash predates the first record
	}
	if string(data[:4]) != logMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptRecord, data[:4])
	}
	if v := data[4]; v != logVersion {
		return nil, fmt.Errorf("%w: v%d, want v%d", ErrLogVersion, v, logVersion)
	}
	recs, _, err := scan(data)
	return recs, err
}

// Config shapes a Log.
type Config struct {
	// SyncEvery fsyncs after this many appends; 0 or 1 syncs every
	// append (full durability), larger values batch the syncs and may
	// lose the unsynced suffix on a crash.
	SyncEvery int
}

// Log is an open write-ahead log. Appends are serialized internally;
// a Log is safe for concurrent use, though the dataset layer already
// serializes mutations.
type Log struct {
	syncEvery int

	mu        sync.Mutex
	f         *os.File
	off       int64  // logical end of the file (all written frames)
	synced    int64  // end of the last fsynced frame
	pending   int    // appends since the last sync
	lastSeq   uint64 // seq of the last written record
	syncedSeq uint64 // seq of the last synced record
	broken    error  // sticky: a failure that could not be rewound
}

// Open opens (creating if absent) the log at path, truncates any torn
// tail left by a crash, and returns the log together with the records
// of every complete frame, ready to be replayed over a snapshot.
// Structural corruption — a full record that fails its CRC — is
// ErrCorruptRecord, never a silent drop.
func Open(path string, cfg Config) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("wal: reading log: %w", err), f.Close())
	}
	syncEvery := cfg.SyncEvery
	if syncEvery < 1 {
		syncEvery = 1
	}

	switch {
	case len(data) < headerLen:
		// Empty file, or a crash tore the header write itself: no
		// record can have been acknowledged, start fresh.
		if err := initHeader(f); err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
		return &Log{syncEvery: syncEvery, f: f, off: headerLen, synced: headerLen}, nil, nil
	case string(data[:4]) != logMagic:
		return nil, nil, errors.Join(fmt.Errorf("%w: bad magic %q", ErrCorruptRecord, data[:4]), f.Close())
	case data[4] != logVersion:
		return nil, nil, errors.Join(fmt.Errorf("%w: v%d, want v%d", ErrLogVersion, data[4], logVersion), f.Close())
	}

	recs, good, err := scan(data)
	if err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	if good < int64(len(data)) {
		// Torn tail: the residue of a crash mid-append. Truncating it
		// is safe — an unfinished frame was never acknowledged.
		if terr := f.Truncate(good); terr != nil {
			return nil, nil, errors.Join(fmt.Errorf("wal: truncating torn tail: %w", terr), f.Close())
		}
		if serr := f.Sync(); serr != nil {
			return nil, nil, errors.Join(fmt.Errorf("wal: syncing truncated log: %w", serr), f.Close())
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("wal: seeking log end: %w", err), f.Close())
	}
	var last uint64
	if n := len(recs); n > 0 {
		last = recs[n-1].Seq
	}
	return &Log{
		syncEvery: syncEvery, f: f,
		off: good, synced: good, lastSeq: last, syncedSeq: last,
	}, recs, nil
}

// initHeader initializes a fresh (or torn-header) log file.
func initHeader(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("wal: initializing log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: initializing log: %w", err)
	}
	hdr := append([]byte(logMagic), logVersion)
	if _, err := f.Write(hdr); err != nil {
		return fmt.Errorf("wal: writing log header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing log header: %w", err)
	}
	return nil
}

// Append writes one record and runs the sync policy. On return with a
// nil error and SyncEvery <= 1 the record is durable; on any error the
// record is guaranteed absent from the log (the file was rewound), so
// the caller must not apply the mutation either.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrLogUnusable, l.broken)
	}
	if err := validate(rec); err != nil {
		return err
	}
	if rec.Seq <= l.lastSeq {
		return fmt.Errorf("wal: non-monotonic sequence %d (last %d)", rec.Seq, l.lastSeq)
	}
	frame := encodeFrame(rec)

	if fault.Enabled && fault.Active(fault.SiteWALAppend) {
		// Simulated crash inside the write syscall: a prefix of the
		// frame lands on disk and the "process" is gone — the log
		// object refuses further use until compaction resets it, and
		// recovery must truncate the torn tail.
		//kregret:allow errdrop: the injected crash abandons the write mid-flight by design
		l.f.Write(frame[:len(frame)/2])
		l.broken = errors.New("injected crash mid-append")
		return fmt.Errorf("wal: append: %v", l.broken)
	}

	if _, err := l.f.Write(frame); err != nil {
		l.rewindLocked(fmt.Errorf("wal: append: %w", err))
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(len(frame))
	l.pending++
	l.lastSeq = rec.Seq
	if l.pending >= l.syncEvery {
		return l.syncLocked()
	}
	return nil
}

// Sync forces the unsynced suffix to disk (a no-op when nothing is
// pending). Batching callers use it to bound the acknowledgment lag.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrLogUnusable, l.broken)
	}
	if l.pending == 0 {
		return nil
	}
	return l.syncLocked()
}

// syncLocked fsyncs the file. On failure the unsynced suffix is in an
// unknown on-disk state, so it is rewound away: the log stays exactly
// at its last known-durable frame and the failed mutations report
// errors instead of maybe-persisting.
func (l *Log) syncLocked() error {
	var err error
	if fault.Enabled && fault.Active(fault.SiteWALSync) {
		err = errors.New("wal: sync failed (injected)")
	} else if serr := l.f.Sync(); serr != nil {
		err = fmt.Errorf("wal: sync: %w", serr)
	}
	if err == nil {
		l.synced = l.off
		l.syncedSeq = l.lastSeq
		l.pending = 0
		return nil
	}
	l.rewindLocked(err)
	return err
}

// rewindLocked restores the file to the last synced offset after a
// failed write or sync. If the rewind itself fails the log is marked
// unusable: its tail is in an unknown state and appending after it
// would corrupt the record stream.
func (l *Log) rewindLocked(cause error) {
	if err := l.f.Truncate(l.synced); err != nil {
		l.broken = errors.Join(cause, fmt.Errorf("rewind truncate: %w", err))
		return
	}
	if _, err := l.f.Seek(l.synced, io.SeekStart); err != nil {
		l.broken = errors.Join(cause, fmt.Errorf("rewind seek: %w", err))
		return
	}
	if err := l.f.Sync(); err != nil {
		l.broken = errors.Join(cause, fmt.Errorf("rewind sync: %w", err))
		return
	}
	l.off = l.synced
	l.pending = 0
	l.lastSeq = l.syncedSeq
}

// Reset truncates the log back to its header — the second half of
// compaction, run after the mutations have been folded into a durable
// snapshot. Sequence numbers keep rising across resets, so stale
// records from a crash between the snapshot and the reset are skipped
// by replay. A Reset also heals a log marked unusable: the fresh tail
// is a known-good state.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fault.Enabled && fault.Active(fault.SiteWALRotate) {
		return errors.New("wal: rotate failed (injected)")
	}
	if err := l.f.Truncate(headerLen); err != nil {
		l.broken = fmt.Errorf("reset truncate: %w", err)
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(headerLen, io.SeekStart); err != nil {
		l.broken = fmt.Errorf("reset seek: %w", err)
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("reset sync: %w", err)
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.off, l.synced = headerLen, headerLen
	l.pending = 0
	l.syncedSeq = l.lastSeq
	l.broken = nil
	return nil
}

// Close syncs any pending suffix and closes the file. The error joins
// both failures; a closed log must not be used again.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var serr error
	if l.pending > 0 && l.broken == nil {
		serr = l.syncLocked()
	}
	return errors.Join(serr, l.f.Close())
}

// Size returns the logical end of the log in bytes — the boundary
// after the last written frame. Crash-point tests use it to learn
// every record boundary.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}
