package kregret

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
)

// Errors returned by the persistence layer.
var (
	// ErrIndexMismatch is returned by LoadIndex when the serialized
	// index was built from a different dataset than the one supplied.
	ErrIndexMismatch = errors.New("kregret: index does not match dataset")

	// ErrCorruptIndex is returned by LoadIndex/LoadFile when the
	// snapshot bytes are damaged — truncated, bit-flipped, or not a
	// snapshot at all. A corrupt snapshot is always reported as this
	// typed error (never a panic, never a silently-wrong index), so
	// callers can fall back to rebuilding the StoredList.
	ErrCorruptIndex = errors.New("kregret: corrupt index snapshot")
)

// Snapshot frame, shared by index snapshots (magic "KRGX") and
// dataset base snapshots (magic "KRGD"), both at frame version 2:
//
//	offset 0  magic (4 bytes)
//	       4  frame version (1 byte)
//	       5  payload length (uint64 little-endian)
//	      13  payload (gob streams for an index, raw rows for a dataset)
//	  13+len  CRC-32C over bytes [0, 13+len) (uint32 little-endian)
//
// The CRC trailer covers the header and the payload together, so a
// truncation or bit flip anywhere in the file surfaces as the kind's
// typed corrupt error before any payload decoding happens.
const (
	snapshotMagic   = "KRGX"
	snapshotVersion = 2
	dsSnapMagic     = "KRGD"
	dsSnapVersion   = 2
	snapshotHdrLen  = 4 + 1 + 8
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// frameSnapshot wraps payload in a snapshot frame.
func frameSnapshot(magic string, version byte, payload []byte) []byte {
	frame := appendFrameHeader(make([]byte, 0, snapshotHdrLen+len(payload)+4), magic, version, len(payload))
	return sealFrame(append(frame, payload...))
}

// appendFrameHeader appends the header of a frame whose payload is n
// bytes long; the payload and sealFrame's trailer follow it.
func appendFrameHeader(dst []byte, magic string, version byte, n int) []byte {
	dst = append(dst, magic...)
	dst = append(dst, version)
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// sealFrame appends the CRC-32C trailer over the header and payload
// already in frame.
func sealFrame(frame []byte) []byte {
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, snapshotCRC))
}

// unframeSnapshot checks that data is exactly one frame with the given
// magic and version and returns its payload. Damage — a short input, a
// wrong magic, a length that disagrees with the bytes present, a CRC
// mismatch — wraps corrupt; a different frame version is a plain
// version error.
func unframeSnapshot(data []byte, magic string, version byte, corrupt error) ([]byte, error) {
	if len(data) < snapshotHdrLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the frame", corrupt, len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", corrupt, data[:4])
	}
	if v := data[4]; v != version {
		return nil, fmt.Errorf("kregret: %q snapshot format v%d, want v%d", magic, v, version)
	}
	if n := binary.LittleEndian.Uint64(data[5:]); n != uint64(len(data)-snapshotHdrLen-4) {
		return nil, fmt.Errorf("%w: payload length %d does not match %d bytes", corrupt, n, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if stored, crc := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, snapshotCRC); stored != crc {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", corrupt, stored, crc)
	}
	return body[snapshotHdrLen:], nil
}

// indexWire is the gob envelope around a stored list: the candidate
// mapping (the happy points, or for a checked list the skyline) plus a
// checksum binding the index to the dataset it was built from. Its
// Version field versions the payload schema, independent of the outer
// frame version; only the current one loads.
//
// Ext carries the skyline (extreme set) indices computed during
// preprocessing, so loading a snapshot also seeds the dataset's
// evaluation pruning, and tells a checked list apart, without
// recomputing the skyline pass. Core is empty in every snapshot this
// package writes. Sharded engines once wrote their merged core there,
// beside a list over it that is only ε-approximate, so a payload that
// carries one is ErrIndexMismatch and an engine rebuilds over it.
type indexWire struct {
	Version  int
	Checksum uint64
	N, Dim   int
	Cand     []int
	Ext      []int
	Core     []int
}

const indexVersion = 3

// wireManifest pins the wire layout of every struct this package
// persists, gob-encoded or through the appendWire convention (checked
// by the wireguard analyzer): changing a field means rewriting the
// entry on this line, which is where the version bump and the
// decoder's version check get reviewed together.
var wireManifest = map[string]string{
	"indexWire":   "v3 Version int; Checksum uint64; N int; Dim int; Cand []int; Ext []int; Core []int",
	"datasetWire": "v2 Seq uint64; Pts geom.Rows",
}

// checksum fingerprints the epoch's (normalized) points: FNV-64a over
// every coordinate's bits, in row order.
func (s *dsState) checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < s.rows.Len(); i++ {
		for _, x := range s.rows.Row(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			//kregret:allow errdrop: hash.Hash.Write never returns an error
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Save serializes the index so later processes can skip the expensive
// StoredList preprocessing. The dataset itself is not stored; load
// with LoadIndex against an identically-constructed Dataset. d must
// still hold the epoch the index describes, the one it was built or
// loaded over (Snapshot views share it): an index from before a
// mutation of d, or from another Dataset, is ErrIndexMismatch, even
// when the points match. The stream is framed
// with a CRC-32C trailer so corruption is detectable on load; use
// SaveFile for crash-safe writes to disk.
func (x *Index) Save(w io.Writer, d *Dataset) error {
	frame, err := x.encode(d)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("kregret: saving index: %w", err)
	}
	return nil
}

// encode builds the framed index snapshot from d's current epoch,
// which must be the one the index describes.
func (x *Index) encode(d *Dataset) ([]byte, error) {
	st := d.snap()
	if st.id != x.epoch {
		return nil, fmt.Errorf("%w: the index describes another epoch than the dataset's %d points at mutation %d",
			ErrIndexMismatch, st.rows.Len(), st.seq)
	}
	// The skyline is already cached on any epoch that built an index
	// (the list build and the happy-point pass both run it); persisting
	// it lets the loader seed evaluation pruning for free.
	sky, err := st.skyline()
	if err != nil {
		return nil, fmt.Errorf("kregret: saving index: %w", err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(indexWire{
		Version:  indexVersion,
		Checksum: st.checksum(),
		N:        st.rows.Len(),
		Dim:      st.rows.Dim(),
		Cand:     x.cand,
		Ext:      sky,
	}); err != nil {
		return nil, fmt.Errorf("kregret: saving index: %w", err)
	}
	if err := x.list.Save(&payload); err != nil {
		return nil, fmt.Errorf("kregret: saving index list: %w", err)
	}
	return frameSnapshot(snapshotMagic, snapshotVersion, payload.Bytes()), nil
}

// LoadIndex restores an index saved with Index.Save, verifying both
// the snapshot integrity (frame and CRC trailer; damage comes back as
// ErrCorruptIndex) and that it was built from exactly the given
// dataset (content checksum; mismatch comes back as
// ErrIndexMismatch). It reads r to EOF, so memory grows only with the
// bytes actually present, whatever the header claims.
func LoadIndex(r io.Reader, d *Dataset) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("kregret: reading index snapshot: %w", err)
	}
	return decodeIndex(data, d)
}

// decodeIndex verifies the frame, decodes the two gob streams and
// validates them against d's current epoch, which the index then
// describes. Framing, integrity and decode failures are corruption; a
// clean decode that names a different dataset, or carries a sharded
// core, is ErrIndexMismatch.
func decodeIndex(data []byte, d *Dataset) (*Index, error) {
	payload, err := unframeSnapshot(data, snapshotMagic, snapshotVersion, ErrCorruptIndex)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(payload)
	var wire indexWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: decoding index: %v", ErrCorruptIndex, err)
	}
	if wire.Version != indexVersion {
		return nil, fmt.Errorf("kregret: index payload v%d, want v%d", wire.Version, indexVersion)
	}
	st := d.snap()
	n := st.rows.Len()
	if wire.N != n || wire.Dim != st.rows.Dim() || wire.Checksum != st.checksum() {
		return nil, ErrIndexMismatch
	}
	if len(wire.Core) > 0 {
		return nil, fmt.Errorf("%w: the list was built over a sharded engine's merged core", ErrIndexMismatch)
	}
	// Every writer stores ascending candidates: the skyline or the
	// happy points.
	for k, c := range wire.Cand {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("%w: index candidate %d out of range", ErrCorruptIndex, c)
		}
		if k > 0 && c <= wire.Cand[k-1] {
			return nil, fmt.Errorf("%w: index candidates not strictly ascending at position %d", ErrCorruptIndex, k)
		}
	}
	// Validate the extreme set before seeding: a snapshot that passed
	// the CRC can still carry garbage if it was written by a buggy or
	// hostile producer.
	for k, e := range wire.Ext {
		if e < 0 || e >= n {
			return nil, fmt.Errorf("%w: extreme index %d out of range", ErrCorruptIndex, e)
		}
		if k > 0 && e <= wire.Ext[k-1] {
			return nil, fmt.Errorf("%w: extreme set not strictly ascending at position %d", ErrCorruptIndex, k)
		}
	}
	list, err := core.LoadStoredList(r)
	if err != nil {
		return nil, fmt.Errorf("%w: loading index list: %v", ErrCorruptIndex, err)
	}
	// The list indexes Cand, so it must have been built over exactly
	// that many candidates.
	if nc := list.Candidates(); nc != len(wire.Cand) {
		return nil, fmt.Errorf("%w: list built over %d candidates, index stores %d", ErrCorruptIndex, nc, len(wire.Cand))
	}
	if len(wire.Ext) > 0 {
		// Seed the epoch's skyline cache, so the load does not recompute
		// the skyline pass; a cache already filled is kept.
		seedOnce(&st.skyMu, &st.skyDone, func() { st.sky = wire.Ext })
	}
	return &Index{list: list, cand: wire.Cand, epoch: st.id}, nil
}

// SaveFile writes the index snapshot to path crash-safely (see
// writeSnapshotFile); a torn write that slips through anyway (disk
// lying about sync) is caught by the CRC on load.
func (x *Index) SaveFile(path string, d *Dataset) error {
	frame, err := x.encode(d)
	if err != nil {
		return err
	}
	return writeSnapshotFile(path, "index", frame)
}

// writeSnapshotFile publishes a framed snapshot at path: the bytes go
// to a temporary file in the same directory, are fsynced (the
// persist.sync fault site), and the temp file is atomically renamed
// over path, whose directory is then fsynced. A crash at any point
// leaves either the old file or the complete new one — never a torn
// snapshot — and a failure at any step removes the temp file and
// leaves a previous snapshot at path untouched. kind names the
// snapshot in errors and in the temp file name.
func writeSnapshotFile(path, kind string, frame []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".kregret-"+kind+"-*")
	if err != nil {
		return fmt.Errorf("kregret: saving %s snapshot: %w", kind, err)
	}
	if _, err := tmp.Write(frame); err != nil {
		err = fmt.Errorf("kregret: saving %s snapshot: %w", kind, err)
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	if err := syncTemp(tmp); err != nil {
		err = fmt.Errorf("kregret: syncing %s snapshot: %w", kind, err)
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	if err := tmp.Close(); err != nil {
		err = fmt.Errorf("kregret: closing %s snapshot: %w", kind, err)
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		err = fmt.Errorf("kregret: publishing %s snapshot: %w", kind, err)
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("kregret: syncing snapshot directory: %w", err)
	}
	if fault.Enabled && fault.Active(fault.SitePersistTornWrite) {
		tearFile(path)
	}
	return nil
}

// syncTemp fsyncs a snapshot temp file, honoring the persist.sync
// fault site: an injected failure behaves exactly like a full disk or
// a dying device reporting the fsync error, and the caller's cleanup
// must remove the temp file and leave the previous snapshot loadable.
func syncTemp(f *os.File) error {
	if fault.Enabled && fault.Active(fault.SitePersistSync) {
		return errors.New("fsync failed (injected)")
	}
	return f.Sync()
}

// syncDir fsyncs a directory so the rename that published a snapshot
// is itself durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// tearFile truncates a published snapshot to half its size — the
// fault-injection model of a crash that tore the write despite the
// atomic-rename protocol (e.g. a device that acknowledged the sync
// without persisting). Only reachable under the kregretfault tag.
func tearFile(path string) {
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	//kregret:allow errdrop: fault injection is best-effort by design
	os.Truncate(path, info.Size()/2)
}

// LoadFile restores an index snapshot written by SaveFile (or any
// Save output on disk). Corruption is ErrCorruptIndex, a snapshot of
// a different dataset is ErrIndexMismatch, and a missing file is the
// underlying fs error (check with os.IsNotExist / errors.Is).
func LoadFile(path string, d *Dataset) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kregret: loading index snapshot: %w", err)
	}
	return decodeIndex(data, d)
}

// ErrCorruptSnapshot is returned by Recover (via loadDatasetFile)
// when the dataset base snapshot bytes are damaged — truncated,
// bit-flipped, or not a dataset snapshot at all. Like ErrCorruptIndex
// it is always a typed error, never a panic or a silently-wrong
// dataset.
var ErrCorruptSnapshot = errors.New("kregret: corrupt dataset snapshot")

// Dataset base snapshots — the durable half of the (snapshot, WAL)
// pair behind WithWAL/Recover — use the snapshot frame with magic
// "KRGD" and frame version 2, whose payload is the rows themselves
// (datasetWire.appendWire). The frame version is the payload's only
// version, so a file of any other version is refused with the
// frame-version error.
//
// datasetWire is a base snapshot's payload: the (already normalized)
// points' rows plus the sequence number of the last mutation folded in
// — the watermark Recover's replay skips WAL records by.
type datasetWire struct {
	Seq uint64
	Pts geom.Rows
}

// datasetHdrLen is the payload's fixed prefix: seq, n and d.
const datasetHdrLen = 3 * 8

// wireLen is the length of the payload appendWire writes.
func (w datasetWire) wireLen() int {
	return datasetHdrLen + 8*len(w.Pts.Data())
}

// appendWire appends the payload: seq, n and d as uint64
// little-endian, then the n·d coordinates row-major as float64
// little-endian.
func (w datasetWire) appendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, w.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Pts.Len()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Pts.Dim()))
	for _, x := range w.Pts.Data() {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeWire is appendWire's strict inverse. The shape must account
// for every payload byte and every coordinate must be finite and
// strictly positive, so a payload that passed the CRC but was written
// by a buggy or hostile producer is ErrCorruptSnapshot. Memory is
// sized by the bytes present, never by the header's claim.
func (w *datasetWire) decodeWire(payload []byte) error {
	if len(payload) < datasetHdrLen || (len(payload)-datasetHdrLen)%8 != 0 {
		return fmt.Errorf("%w: decoding payload: %d bytes is not a header and whole coordinates", ErrCorruptSnapshot, len(payload))
	}
	n, dim := binary.LittleEndian.Uint64(payload[8:]), binary.LittleEndian.Uint64(payload[16:])
	body := payload[datasetHdrLen:]
	// The shape is checked by division: n·d can wrap around.
	count := uint64(len(body) / 8)
	if n < 1 || dim < 1 || count%dim != 0 || count/dim != n {
		return fmt.Errorf("%w: %d coordinates for %d×%d points", ErrCorruptSnapshot, count, n, dim)
	}
	coords := make([]float64, count)
	for i := range coords {
		x := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		if !(x > 0 && x <= math.MaxFloat64) {
			return fmt.Errorf("%w: point %d has coordinate %g, want finite and strictly positive", ErrCorruptSnapshot, uint64(i)/dim, x)
		}
		coords[i] = x
	}
	w.Seq = binary.LittleEndian.Uint64(payload)
	w.Pts = geom.NewRows(coords, int(dim))
	return nil
}

// saveDatasetFile writes st as a base snapshot to path with the same
// crash-safe protocol as Index.SaveFile (writeSnapshotFile) and
// returns the snapshot's size in bytes. The frame is built in one
// allocation of its exact size, straight from the epoch's rows.
func saveDatasetFile(path string, st *dsState) (int64, error) {
	w := datasetWire{Seq: st.seq, Pts: st.rows}
	n := w.wireLen()
	frame := appendFrameHeader(make([]byte, 0, snapshotHdrLen+n+4), dsSnapMagic, dsSnapVersion, n)
	frame = sealFrame(w.appendWire(frame))
	if err := writeSnapshotFile(path, "dataset", frame); err != nil {
		return 0, err
	}
	return int64(len(frame)), nil
}

// loadDatasetFile reads a base snapshot back: the rows, the sequence
// watermark and the snapshot's size in bytes. Any framing, integrity
// or structural violation is ErrCorruptSnapshot; a missing file is the
// underlying fs error.
func loadDatasetFile(path string) (geom.Rows, uint64, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return geom.Rows{}, 0, 0, fmt.Errorf("kregret: loading dataset snapshot: %w", err)
	}
	w, err := decodeDataset(data)
	if err != nil {
		return geom.Rows{}, 0, 0, err
	}
	return w.Pts, w.Seq, int64(len(data)), nil
}

// decodeDataset verifies a base snapshot's frame and decodes its
// payload.
func decodeDataset(data []byte) (datasetWire, error) {
	var w datasetWire
	payload, err := unframeSnapshot(data, dsSnapMagic, dsSnapVersion, ErrCorruptSnapshot)
	if err != nil {
		return w, err
	}
	err = w.decodeWire(payload)
	return w, err
}
