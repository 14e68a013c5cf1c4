package kregret

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
)

func snapshotFixture(t *testing.T) (*Dataset, *Index, []byte) {
	t.Helper()
	ds, err := NewDataset(testPoints(80, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return ds, idx, buf.Bytes()
}

// TestSnapshotTruncationEveryByte is the durability regression the
// CRC frame exists for: a snapshot cut at ANY byte boundary must come
// back as ErrCorruptIndex — never a panic, never a silently-wrong
// index. Before the frame, a truncation inside the second gob stream
// could decode into garbage or an opaque gob error.
func TestSnapshotTruncationEveryByte(t *testing.T) {
	ds, _, snap := snapshotFixture(t)
	for i := 0; i < len(snap); i++ {
		idx, err := LoadIndex(bytes.NewReader(snap[:i]), ds)
		if idx != nil {
			t.Fatalf("truncation at byte %d of %d produced an index", i, len(snap))
		}
		if !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("truncation at byte %d of %d: want ErrCorruptIndex, got %v", i, len(snap), err)
		}
	}
	// The untruncated snapshot still loads.
	if _, err := LoadIndex(bytes.NewReader(snap), ds); err != nil {
		t.Fatalf("full snapshot failed to load: %v", err)
	}
}

// Every single-byte corruption must be detected. Byte 4 is the frame
// version and gets its own error; everywhere else the magic, length or
// CRC check reports corruption.
func TestSnapshotBitFlipEveryByte(t *testing.T) {
	ds, _, snap := snapshotFixture(t)
	for i := 0; i < len(snap); i++ {
		mutated := append([]byte(nil), snap...)
		mutated[i] ^= 0xa5
		idx, err := LoadIndex(bytes.NewReader(mutated), ds)
		if err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted (index=%v)", i, len(snap), idx != nil)
		}
		if i == 4 {
			if !strings.Contains(err.Error(), "format") {
				t.Fatalf("version-byte flip: want a format-version error, got %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("bit flip at byte %d of %d: want ErrCorruptIndex, got %v", i, len(snap), err)
		}
	}
}

// TestSnapshotRejectsPreviousFormats: only the current frame and
// payload versions load. A bare gob stream (the pre-frame format) has
// no magic, so it is ErrCorruptIndex and an engine rebuilds over it;
// a framed payload of an earlier version is a version error.
func TestSnapshotRejectsPreviousFormats(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	payload := func(version int) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(indexWire{
			Version:  version,
			Checksum: ds.snap().checksum(),
			N:        ds.Len(),
			Dim:      ds.Dim(),
			Cand:     idx.cand,
		}); err != nil {
			t.Fatal(err)
		}
		if err := idx.list.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		corrupt bool
	}{
		{"bare gob stream", payload(indexVersion), true},
		{"framed payload v1", frameSnapshot(snapshotMagic, snapshotVersion, payload(1)), false},
		{"framed payload v2", frameSnapshot(snapshotMagic, snapshotVersion, payload(2)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loaded, err := LoadIndex(bytes.NewReader(tc.data), ds)
			if err == nil || loaded != nil {
				t.Fatalf("previous format loaded (index=%v)", loaded != nil)
			}
			if got := errors.Is(err, ErrCorruptIndex); got != tc.corrupt {
				t.Fatalf("errors.Is(err, ErrCorruptIndex) = %v, want %v: %v", got, tc.corrupt, err)
			}
			if tc.corrupt {
				path := filepath.Join(t.TempDir(), "idx.snap")
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
				eng, err := NewEngine(ds, WithSnapshot(path))
				if err != nil {
					t.Fatalf("engine did not rebuild over the old format: %v", err)
				}
				defer shutdownEngine(t, eng)
				if !eng.Stats().SnapshotRebuilt {
					t.Fatal("engine adopted an old-format snapshot")
				}
				return
			}
			if !strings.Contains(err.Error(), "payload v") {
				t.Fatalf("want a payload version error, got %v", err)
			}
		})
	}
}

// TestLoadIndexHugeLengthAllocatesLittle: a 13-byte header claiming a
// 4 GiB payload must be rejected as corrupt without allocating for
// the claimed length — memory grows only with the bytes present.
func TestLoadIndexHugeLengthAllocatesLittle(t *testing.T) {
	ds, _, _ := snapshotFixture(t)
	hdr := binary.LittleEndian.AppendUint64([]byte(snapshotMagic+"\x02"), 1<<32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadIndex(bytes.NewReader(hdr), ds)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("want ErrCorruptIndex, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a 13-byte input allocated %d bytes", alloc)
	}
}

// Loading a v2 snapshot into a fresh dataset seeds its skyline cache,
// and the seeded skyline must be exactly what the dataset would have
// computed itself — otherwise pruned evaluation would silently change.
func TestSnapshotSeedsExtremeSet(t *testing.T) {
	ds, idx, snap := snapshotFixture(t)
	fresh, err := NewDataset(testPoints(80, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(bytes.NewReader(snap), fresh)
	if err != nil {
		t.Fatal(err)
	}
	wantSky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	gotSky, err := fresh.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSky) != len(gotSky) {
		t.Fatalf("seeded skyline has %d points, computed %d", len(gotSky), len(wantSky))
	}
	for i := range wantSky {
		if wantSky[i] != gotSky[i] {
			t.Fatalf("seeded skyline differs at %d: %d vs %d", i, gotSky[i], wantSky[i])
		}
	}
	want, err := idx.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if want.MRR != got.MRR {
		t.Fatalf("seeded dataset answers differently: %v vs %v", got.MRR, want.MRR)
	}
}

// indexPayload is the payload of an index snapshot of ds with w's
// candidates, extreme set and core and the given list stream,
// consistent or not; frameSnapshot gives it a valid CRC.
func indexPayload(tb testing.TB, ds *Dataset, w indexWire, list []byte) []byte {
	tb.Helper()
	st := ds.snap()
	w.Version, w.Checksum, w.N, w.Dim = indexVersion, st.checksum(), st.rows.Len(), st.rows.Dim()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return append(payload.Bytes(), list...)
}

// listStream is the gob stream idx's list saves.
func listStream(tb testing.TB, idx *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := idx.list.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A CRC-valid frame can still carry a hostile extreme set; both
// out-of-range and out-of-order entries must be rejected as
// corruption before they seed the dataset.
func TestSnapshotRejectsBadExtremeSet(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	list := listStream(t, idx)
	for name, ext := range map[string][]int{
		"out of range":  {0, ds.Len()},
		"negative":      {-1, 2},
		"not ascending": {3, 3},
		"descending":    {5, 2},
	} {
		snap := frameSnapshot(snapshotMagic, snapshotVersion, indexPayload(t, ds, indexWire{Cand: idx.cand, Ext: ext}, list))
		if _, err := LoadIndex(bytes.NewReader(snap), ds); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("%s extreme set: want ErrCorruptIndex, got %v", name, err)
		}
	}
}

// storedListMirror decodes a StoredList's gob stream by field name,
// so a test can change one field and encode it again.
type storedListMirror struct {
	Version, Dim, NCand int
	Complete            bool
	Order               []int
	MRRAt               []float64
}

// inconsistentListPayloads are index payloads of ds whose list does
// not fit the rest: candidates cut to one entry (the list then indexes
// past them), candidates out of order, and regrets that rise along the
// list (MinSize's binary search assumes they never do).
func inconsistentListPayloads(tb testing.TB, ds *Dataset, idx *Index) []namedPayload {
	tb.Helper()
	list := listStream(tb, idx)
	var m storedListMirror
	if err := gob.NewDecoder(bytes.NewReader(list)).Decode(&m); err != nil {
		tb.Fatal(err)
	}
	last := len(m.MRRAt) - 1
	if last < 1 || m.MRRAt[last-1] >= 1 {
		tb.Fatalf("fixture list has regrets %v, want two or more below 1", m.MRRAt)
	}
	m.MRRAt[last] = 1
	var rising bytes.Buffer
	if err := gob.NewEncoder(&rising).Encode(m); err != nil {
		tb.Fatal(err)
	}
	swapped := slices.Clone(idx.cand)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	return []namedPayload{
		{"one candidate", indexPayload(tb, ds, indexWire{Cand: idx.cand[:1]}, list)},
		{"unsorted candidates", indexPayload(tb, ds, indexWire{Cand: swapped}, list)},
		{"rising regrets", indexPayload(tb, ds, indexWire{Cand: idx.cand}, rising.Bytes())},
	}
}

type namedPayload struct {
	name    string
	payload []byte
}

// A CRC-valid frame whose list does not fit its candidates, or whose
// regrets rise, is corrupt: LoadIndex refuses it, and an engine
// started over it rebuilds the snapshot instead of serving from it.
func TestSnapshotRejectsInconsistentList(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	want, err := ds.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range inconsistentListPayloads(t, ds, idx) {
		t.Run(tc.name, func(t *testing.T) {
			snap := frameSnapshot(snapshotMagic, snapshotVersion, tc.payload)
			if _, err := LoadIndex(bytes.NewReader(snap), ds); !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("want ErrCorruptIndex, got %v", err)
			}
			path := filepath.Join(t.TempDir(), "idx.snap")
			if err := os.WriteFile(path, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(ds, WithSnapshot(path))
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownEngine(t, eng)
			if !eng.Stats().SnapshotRebuilt {
				t.Fatal("engine served from an inconsistent snapshot")
			}
			got, err := eng.Query(context.Background(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Indices, want.Indices) || got.MRR != want.MRR {
				t.Fatalf("rebuilt engine answered %v (mrr %v), want %v (mrr %v)", got.Indices, got.MRR, want.Indices, want.MRR)
			}
		})
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.snap")
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	if want.MRR != got.MRR {
		t.Fatalf("file round trip changed the answer: %v vs %v", got.MRR, want.MRR)
	}
	// Overwriting an existing snapshot is atomic, not additive.
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatalf("overwrite failed: %v", err)
	}
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatalf("overwritten snapshot corrupt: %v", err)
	}
	// No temp-file litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot dir littered: %v", names)
	}
}

// TestSaveFileRefusesStaleIndex: an Index describes the epoch it was
// built over. Once the dataset has moved on, Save and SaveFile refuse
// it as ErrIndexMismatch and write nothing, so no restart adopts a
// list over points the dataset no longer holds. An index of the
// current epoch saves, an engine over it answers as Dataset.Query
// does, and the engine's own index goes stale at its next fold.
func TestSaveFileRefusesStaleIndex(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(Point{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := stale.SaveFile(path, ds); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("SaveFile of a stale index: want ErrIndexMismatch, got %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused SaveFile left a file (stat: %v)", err)
	}
	var buf bytes.Buffer
	if err := stale.Save(&buf, ds); !errors.Is(err, ErrIndexMismatch) || buf.Len() > 0 {
		t.Fatalf("Save of a stale index: got %v after %d bytes, want ErrIndexMismatch and none", err, buf.Len())
	}

	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	if eng.Stats().SnapshotRebuilt {
		t.Fatal("engine rebuilt a current snapshot")
	}
	got, err := eng.Query(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffAnswer(got, want); err != nil {
		t.Fatalf("k=3: %v", err)
	}

	before := eng.Index()
	if err := eng.Apply(context.Background(), InsertMutation(Point{0.5, 0.5, 0.5})); err != nil {
		t.Fatal(err)
	}
	if err := before.SaveFile(path, eng.Dataset()); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("SaveFile of the index before a fold: want ErrIndexMismatch, got %v", err)
	}
	folded, err := eng.Dataset().BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := folded.SaveFile(path, eng.Dataset()); err != nil {
		t.Fatalf("SaveFile of the folded epoch's index: %v", err)
	}
}

// TestSaveFileRefusesOtherDatasetIndex: an Index is bound to the epoch
// it was built over, not to a sequence number and length. Saving it
// against another dataset of the same length at the same sequence
// number is ErrIndexMismatch and writes nothing, so no engine over
// that dataset adopts the list. Views that share the epoch
// (Dataset.Snapshot, Engine.Dataset and the Dataset given to
// NewEngine) save it.
func TestSaveFileRefusesOtherDatasetIndex(t *testing.T) {
	a, err := NewDataset(testPoints(300, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDataset(testPoints(300, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := a.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := idx.SaveFile(path, b); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("SaveFile against another dataset: want ErrIndexMismatch, got %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused SaveFile left a file (stat: %v)", err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf, b); !errors.Is(err, ErrIndexMismatch) || buf.Len() > 0 {
		t.Fatalf("Save against another dataset: got %v after %d bytes, want ErrIndexMismatch and none", err, buf.Len())
	}

	eng, err := NewEngine(b, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	if !eng.Stats().SnapshotRebuilt {
		t.Fatal("engine did not build its own list")
	}
	sameAsDataset(t, eng, b, upTo(8))
	for name, d := range map[string]*Dataset{"NewEngine's dataset": b, "Dataset()": eng.Dataset(), "a Snapshot": b.Snapshot()} {
		if err := eng.Index().SaveFile(path, d); err != nil {
			t.Fatalf("SaveFile of the engine's index against %s: %v", name, err)
		}
	}
	if err := idx.SaveFile(path, a.Snapshot()); err != nil {
		t.Fatalf("SaveFile against a Snapshot of the index's dataset: %v", err)
	}
}

func TestLoadFileErrors(t *testing.T) {
	ds, idx, _ := snapshotFixture(t)
	dir := t.TempDir()

	if _, err := LoadFile(filepath.Join(dir, "nope.snap"), ds); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: want ErrNotExist, got %v", err)
	}

	// A snapshot of a different dataset is a mismatch, not corruption.
	other, err := NewDataset(testPoints(60, 3, 99))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "idx.snap")
	if err := idx.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, other); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("want ErrIndexMismatch, got %v", err)
	}

	// Garbage on disk is corruption.
	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(garbage, ds); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("want ErrCorruptIndex for garbage, got %v", err)
	}
}

// TestDatasetSnapshotLayout pins a dataset base snapshot byte for
// byte: the "KRGD" frame at version 2 around seq, n and d as uint64
// little-endian and the rows as float64 little-endian, then the
// CRC-32C trailer. A change to any of it must bump the frame version.
func TestDatasetSnapshotLayout(t *testing.T) {
	want, err := hex.DecodeString(strings.Join([]string{
		"4b524744", "02", "3800000000000000", // "KRGD", v2, 56 payload bytes
		"0700000000000000", "0200000000000000", "0200000000000000", // seq 7, n 2, d 2
		"000000000000e03f", "000000000000d03f", // 0.5, 0.25
		"000000000000f03f", "000000000000c03f", // 1, 0.125
		"99d43798", // CRC-32C over the 65 bytes above
	}, ""))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.krgd")
	pts := []geom.Vector{{0.5, 0.25}, {1, 0.125}}
	size, err := saveDatasetFile(path, &dsState{seq: 7, rows: geom.Flatten(pts)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || size != int64(len(want)) {
		t.Fatalf("snapshot (size %d) =\n%x\nwant\n%x", size, got, want)
	}
	loaded, seq, loadedSize, err := loadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || loadedSize != size || loaded.Len() != len(pts) {
		t.Fatalf("loaded seq %d, size %d, %d points; want 7, %d, %d", seq, loadedSize, loaded.Len(), size, len(pts))
	}
	for i, p := range pts {
		if !slices.Equal(loaded.Row(i), p) {
			t.Fatalf("point %d loaded as %v, want %v", i, loaded.Row(i), p)
		}
	}
}
