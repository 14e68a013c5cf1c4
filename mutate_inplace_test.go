package kregret

// Insert writes its row in place into the row slab the dataset owns
// (DESIGN.md §12). These tests pin the rules that keep that invisible
// to every published epoch; run them under -race.

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// sameArray reports whether two epochs' rows start at the same place
// in one backing array.
func sameArray(a, b *Dataset) bool { return &a.snap().rows.Data()[0] == &b.snap().rows.Data()[0] }

// TestInsertInPlacePinnedEpochs: while inserts write in place, readers
// pin epochs and read every point they can reach. An epoch pinned
// before an insert never sees the new row and keeps its bits, and
// every published slab prefix is capacity-capped.
func TestInsertInPlacePinnedEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
	}
	ds, err := NewDataset(pts, WithoutNormalization())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(Point{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	pinned := ds.Snapshot()
	want := datasetBits(t, pinned)
	if _, err := ds.Insert(Point{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if !sameArray(ds, pinned) {
		t.Fatal("the insert after an owning copy moved the points instead of writing in place")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := ds.Snapshot()
				var sum float64
				for i := 0; i < ep.Len(); i++ {
					for _, x := range ep.Point(i) {
						sum += x
					}
				}
				if !(sum > 0) {
					t.Errorf("epoch at seq %d reads a coordinate sum of %v", ep.Seq(), sum)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		var err error
		switch {
		case i%50 == 49:
			err = ds.Delete(ds.Len() / 2) // mid-array: a fresh owned slab
		case i%20 == 19:
			err = ds.Delete(ds.Len() - 1) // tail: the next insert copies
		default:
			_, err = ds.Insert(Point{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if pinned.Len() != len(want) || !sameBits(datasetBits(t, pinned), want) {
		t.Fatal("an epoch pinned before the inserts changed")
	}
	for _, ep := range []*Dataset{pinned, ds} {
		if p := ep.snap().rows.Data(); cap(p) != len(p) {
			t.Fatalf("published rows have cap %d beyond their %d values", cap(p), len(p))
		}
	}
}

// TestInsertAfterTailDeleteCopies: a tail Delete publishes a shorter
// prefix of the same slab while its predecessor still reads the
// deleted row, so the Insert that follows must not write there.
func TestInsertAfterTailDeleteCopies(t *testing.T) {
	ds := mutGrid(t)
	a, b := Point{0.45, 0.55}, Point{0.65, 0.35}
	idx, err := ds.Insert(a)
	if err != nil {
		t.Fatal(err)
	}
	pred := ds.Snapshot()
	if err := ds.Delete(idx); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(b); err != nil {
		t.Fatal(err)
	}
	if sameArray(ds, pred) {
		t.Fatal("the insert after a tail delete wrote into its predecessor's array")
	}
	for j, x := range pred.Point(idx) {
		if math.Float64bits(x) != math.Float64bits(a[j]) {
			t.Fatalf("the predecessor's last point changed: %v, want %v", pred.Point(idx), a)
		}
	}
	for j, x := range ds.Point(idx) {
		if math.Float64bits(x) != math.Float64bits(b[j]) {
			t.Fatalf("inserted point reads %v, want %v", ds.Point(idx), b)
		}
	}
}

// TestSnapshotForkInsertCopies: a Snapshot() fork owns no slab, so its
// Insert copies, while the parent keeps writing its own slab in place
// at the same index.
func TestSnapshotForkInsertCopies(t *testing.T) {
	parent := mutGrid(t)
	if _, err := parent.Insert(Point{0.45, 0.55}); err != nil {
		t.Fatal(err)
	}
	fork := parent.Snapshot()
	forkPt, parentPt := Point{0.2, 0.3}, Point{0.7, 0.6}
	fi, err := fork.Insert(forkPt)
	if err != nil {
		t.Fatal(err)
	}
	before := parent.Snapshot()
	pi, err := parent.Insert(parentPt)
	if err != nil {
		t.Fatal(err)
	}
	if fi != pi {
		t.Fatalf("fork and parent inserted at %d and %d, want the same index", fi, pi)
	}
	if sameArray(fork, parent) {
		t.Fatal("the fork's insert wrote into the parent's array")
	}
	if !sameArray(parent, before) {
		t.Fatal("the parent's insert copied instead of writing in place")
	}
	for j := range forkPt {
		if math.Float64bits(fork.Point(fi)[j]) != math.Float64bits(forkPt[j]) ||
			math.Float64bits(parent.Point(pi)[j]) != math.Float64bits(parentPt[j]) {
			t.Fatalf("fork reads %v (want %v), parent reads %v (want %v)",
				fork.Point(fi), forkPt, parent.Point(pi), parentPt)
		}
	}
}

// TestInsertInPlaceAllocatesNoArray: once the dataset owns a slab with
// headroom, an insert allocates its point and its epoch, never an O(n)
// copy of the rows (8·d bytes a point). The inserts stay within the 64
// spare rows.
func TestInsertInPlaceAllocatesNoArray(t *testing.T) {
	const n, inserts = 40_000, 60
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
	}
	ds, err := NewDataset(pts, WithoutNormalization())
	if err != nil {
		t.Fatal(err)
	}
	p := Point{0.5, 0.5, 0.5}
	if _, err := ds.Insert(p); err != nil { // the owning copy
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < inserts; i++ {
		if _, err := ds.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total >= 8*3*n {
		t.Fatalf("%d in-place inserts allocated %d bytes at n=%d, as much as a row copy (%d)", inserts, total, n, 8*3*n)
	}
}

// flatGrid is n distinct two-dimensional points, for the allocation
// tests: with d = 2 a row is 16 bytes, less than the 24-byte slice
// header a per-point array would hold.
func flatGrid(t *testing.T, n int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
	}
	ds, err := NewDataset(pts, WithoutNormalization())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTailDeleteCopiesNothing: a tail Delete publishes a prefix of its
// predecessor's slab and allocates only its epoch.
func TestTailDeleteCopiesNothing(t *testing.T) {
	const n = 40_000
	ds := flatGrid(t, n)
	if _, err := ds.Insert(Point{0.5, 0.5}); err != nil { // the owning copy
		t.Fatal(err)
	}
	pred := ds.Snapshot()
	total := allocated(func() {
		if err := ds.Delete(ds.Len() - 1); err != nil {
			t.Fatal(err)
		}
	})
	if !sameArray(ds, pred) {
		t.Fatal("the tail delete moved the rows")
	}
	if total >= 8*2*n {
		t.Fatalf("a tail delete allocated %d bytes at n=%d, as much as a row copy (%d)", total, n, 8*2*n)
	}
}

// TestMidDeleteCopiesRowsOnce: a mid-array Delete makes one
// pointer-free copy, the surviving rows into a fresh slab with 64
// spare rows, and no per-point header array.
func TestMidDeleteCopiesRowsOnce(t *testing.T) {
	const n = 40_000
	ds := flatGrid(t, n)
	pred := ds.Snapshot()
	total := allocated(func() {
		if err := ds.Delete(n / 2); err != nil {
			t.Fatal(err)
		}
	})
	if sameArray(ds, pred) {
		t.Fatal("a mid-array delete kept its predecessor's slab")
	}
	// The slab rounds up to whole 8 KiB pages; a header array would add
	// 24 bytes a point.
	slab := uint64(8 * 2 * (n - 1 + 64))
	if total < slab || total > slab+16<<10 {
		t.Fatalf("a mid-array delete allocated %d bytes at n=%d, want the %d-byte slab and its epoch", total, n, slab)
	}
	if got, want := ds.Point(n/2), pred.Point(n/2+1); !reflect.DeepEqual(got, want) {
		t.Fatalf("point %d reads %v after the delete, want its successor %v", n/2, got, want)
	}
}

// TestInsertHeadroomGrows: the owning copy leaves 64 spare rows, which
// the next 64 inserts fill in place; the insert after them moves the
// rows to a larger slab (append's growth), and the one after that
// writes in place again.
func TestInsertHeadroomGrows(t *testing.T) {
	ds := flatGrid(t, 1000)
	insert := func() {
		t.Helper()
		if _, err := ds.Insert(Point{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	insert() // the owning copy
	for i := 0; i < 64; i++ {
		prev := ds.Snapshot()
		insert()
		if !sameArray(ds, prev) {
			t.Fatalf("insert %d after the copy moved the rows; the headroom holds 64", i+1)
		}
	}
	prev := ds.Snapshot()
	insert()
	if sameArray(ds, prev) {
		t.Fatal("the insert past the headroom wrote in place")
	}
	prev = ds.Snapshot()
	insert()
	if !sameArray(ds, prev) {
		t.Fatal("the slab grew without headroom for the next insert")
	}
}
