package kregret

// The on-disk bytes of a fixed small dataset: its base snapshot, its
// content checksum and its index file. The constants were recorded by
// this test's first version, before the epoch points became one row
// slab, and testdata/golden holds the files that version wrote, so a
// file written before the layout change must still load after it.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

const (
	goldenSnapSHA256  = "98217626deed567a1656a80d040fdfae95ae93cd414ccef527cf95cb672abdea"
	goldenChecksum    = uint64(0xf5e8d99247c16ba5)
	goldenIndexSHA256 = "346b62b29210ac95f84bd8a499ccefde06b9f82cd9574c346636acb8bddce0e1"
)

// goldenDataset is the fixed dataset: eight anti-correlated-looking
// points in d = 3, normalized, with two mutations folded in so the
// snapshot's watermark is not zero.
func goldenDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset([]Point{
		{3, 1, 2}, {1, 3, 2}, {2, 2, 2.5}, {0.5, 1, 4},
		{2.5, 0.25, 3}, {1, 1, 1}, {0.75, 2.75, 0.5}, {2, 1.5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(Point{0.9, 0.2, 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(2); err != nil {
		t.Fatal(err)
	}
	return ds
}

func sha256File(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestGoldenSnapshotBytes(t *testing.T) {
	ds := goldenDataset(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "base.snap")
	if _, err := saveDatasetFile(snap, ds.snap()); err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "index.snap")
	if err := idx.SaveFile(index, ds); err != nil {
		t.Fatal(err)
	}
	got := []struct {
		name, got, want string
	}{
		{"base snapshot", sha256File(t, snap), goldenSnapSHA256},
		{"index file", sha256File(t, index), goldenIndexSHA256},
	}
	for _, g := range got {
		if g.got != g.want {
			t.Errorf("%s sha256 %s, want %s", g.name, g.got, g.want)
		}
	}
	if sum := ds.snap().checksum(); sum != goldenChecksum {
		t.Errorf("checksum %#x, want %#x", sum, goldenChecksum)
	}
}

// TestGoldenFilesLoad: the base snapshot and index file written before
// the row slab recover and load, and answer as the dataset they came
// from.
func TestGoldenFilesLoad(t *testing.T) {
	want := goldenDataset(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "base.snap")
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "base.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Recover(snap, filepath.Join(dir, "base.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ds.Close(); err != nil {
			t.Error(err)
		}
	}()
	if ds.Seq() != want.Seq() || !sameBits(datasetBits(t, ds), datasetBits(t, want)) {
		t.Fatalf("recovered seq %d, %d points; want seq %d, %d points, bit for bit",
			ds.Seq(), ds.Len(), want.Seq(), want.Len())
	}
	idx, err := LoadFile(filepath.Join("testdata", "golden", "index.snap"), ds)
	if err != nil {
		t.Fatal(err)
	}
	built, err := want.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != built.Len() {
		t.Fatalf("loaded list has %d entries, built %d", idx.Len(), built.Len())
	}
	for k := 1; k <= built.Len(); k++ {
		a, err := idx.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := built.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswerBits(t, a, b)
	}
}
