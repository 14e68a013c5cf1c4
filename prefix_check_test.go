package kregret

// Tests of the checked skyline list (DESIGN.md §10): an epoch builds
// its default list over the skyline and keeps it only when every
// candidate the list relies on is a happy point, and then it is the
// list over the happy points bit for bit. When a relied-on point is
// subjugated, the epoch builds over its happy points instead.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// antiCorrelated returns a normalized anti-correlated dataset.
func antiCorrelated(t *testing.T, n, d int, seed int64) *Dataset {
	t.Helper()
	pts, err := dataset.AntiCorrelated(n, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(vecsToPoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameAsDataset checks eng's default answer for every k in ks against
// ds.Query's, indices, MRR bits, Algorithm and Degraded.
func sameAsDataset(t *testing.T, eng *Engine, ds *Dataset, ks []int) {
	t.Helper()
	for _, k := range ks {
		got, err := eng.Query(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffAnswer(got, want); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// upTo returns 1..n.
func upTo(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = i + 1
	}
	return ks
}

// TestEngineColdStartSkipsHappyPass: on normalized anti-correlated
// data the cold start's list over the skyline passes the check, so the
// epoch never fills its happy cache, and the list, grown to the end,
// answers every k as Dataset.Query does.
func TestEngineColdStartSkipsHappyPass(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			ds := antiCorrelated(t, 2000, d, int64(d))
			eng, err := NewEngine(ds)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownEngine(t, eng)
			ctx := context.Background()
			if _, err := eng.Query(ctx, 20); err != nil {
				t.Fatal(err)
			}
			st := eng.epoch.Load().ds.snap()
			if st.happyDone.Load() {
				t.Fatal("the cold start filled the happy cache")
			}
			if _, err := eng.Query(ctx, len(st.sky)); err != nil {
				t.Fatal(err)
			}
			v := st.prefix.Load()
			if !v.cell.checked || v.cell.missed.Load() || !slices.Equal(v.cand, st.sky) {
				t.Fatal("the list does not map through the skyline")
			}
			if st.happyDone.Load() {
				t.Fatal("growing the list to the end filled the happy cache")
			}
			sameAsDataset(t, eng, ds, upTo(v.cell.list.Load().Len()))
		})
	}
}

// scaledTo09 returns ds's points scaled so every maximum is 0.9, as a
// dataset WithoutNormalization: the check then misses.
func scaledTo09(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	pts := make([]Point, ds.Len())
	for i := range pts {
		p := ds.Point(i)
		for j := range p {
			p[j] *= 0.9
		}
		pts[i] = p
	}
	out, err := NewDataset(pts, WithoutNormalization())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckMissBuildsOverHappy: on data whose maxima are 0.9 the list
// over the skyline relies on points the happy pass subjugates, so the
// epoch's list maps through D_happy, on a live engine and on a
// WithSnapshot engine, and every answer equals Dataset.Query's.
func TestCheckMissBuildsOverHappy(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, snap := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/snapshot=%v", d, snap), func(t *testing.T) {
				ds := scaledTo09(t, antiCorrelated(t, 5000, d, int64(d)))
				var opts []EngineOption
				if snap {
					opts = append(opts, WithSnapshot(filepath.Join(t.TempDir(), "idx.snap")))
				}
				eng, err := NewEngine(ds, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer shutdownEngine(t, eng)
				if _, err := eng.Query(context.Background(), 20); err != nil {
					t.Fatal(err)
				}
				st := eng.epoch.Load().ds.snap()
				v := st.prefix.Load()
				if v.cell.checked || !st.happyDone.Load() || !slices.Equal(v.cand, st.happy) {
					t.Fatal("the list does not map through D_happy")
				}
				if snap && !slices.Equal(eng.Index().cand, st.happy) {
					t.Fatal("the snapshot index does not map through D_happy")
				}
				sameAsDataset(t, eng, ds, upTo(len(st.happy)+2))
			})
		}
	}
}

// TestCheckMissConcurrentReaders: readers that meet a cold epoch's
// missing check together all move to the view over D_happy and answer
// as Dataset.Query does (run it under -race).
func TestCheckMissConcurrentReaders(t *testing.T) {
	ds := scaledTo09(t, antiCorrelated(t, 3000, 3, 3))
	eng, err := NewEngine(ds, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got, err := eng.Query(context.Background(), k)
			if err == nil {
				var want *Answer
				if want, err = ds.Query(k); err == nil {
					err = diffAnswer(got, want)
				}
			}
			if err != nil {
				errs <- fmt.Errorf("k=%d: %w", k, err)
			}
		}(5 + 7*g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := eng.epoch.Load().ds.snap()
	if v := st.prefix.Load(); v.cell.checked || !slices.Equal(v.cand, st.happy) {
		t.Fatal("the list does not map through D_happy")
	}
}

// TestFoldColdHappySharesCell: on an engine that never asked for the
// happy points, a fold that keeps the skyline shares the prefix cell
// and leaves the successor's happy cache cold, and one that changes
// the skyline gives the successor a fresh cell over its happy points;
// answers stay the solver's.
func TestFoldColdHappySharesCell(t *testing.T) {
	for _, fc := range foldCases[:3] {
		t.Run(fc.name, func(t *testing.T) {
			eng, _ := testEngine(t)
			defer shutdownEngine(t, eng)
			ctx := context.Background()
			if _, err := eng.Query(ctx, 8); err != nil {
				t.Fatal(err)
			}
			old := eng.epoch.Load()
			if old.ds.snap().happyDone.Load() {
				t.Fatal("the cold start filled the happy cache")
			}
			if err := eng.Apply(ctx, fc.mut(t, old.ds, nil)); err != nil {
				t.Fatal(err)
			}
			cur := eng.epoch.Load().ds.snap()
			v := cur.prefix.Load()
			switch {
			case fc.share && (v == nil || v.cell != old.ds.snap().prefix.Load().cell):
				t.Fatal("a fold that kept the skyline did not share the cell")
			case fc.share && cur.happyDone.Load():
				t.Fatal("a fold that kept the skyline filled the successor's happy cache")
			case !fc.share && (v == nil || v.cell.checked || !slices.Equal(v.cand, cur.happy)):
				t.Fatal("a fold that changed the skyline gave no fresh cell over the happy points")
			}
			fresh, err := NewDataset(vecsToPoints(cur.rows.Views()), WithoutNormalization())
			if err != nil {
				t.Fatal(err)
			}
			sameAsDataset(t, eng, fresh, []int{3, 8, 12, 1, 40})
		})
	}
}

// errAfterFirst is a context whose Err reports canceled from its
// second call on: a query's up-front check passes, and the first check
// inside a cache fill stops it.
type errAfterFirst struct {
	context.Context
	calls atomic.Int32
}

func (c *errAfterFirst) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestQueryFillHonoursContext: the skyline fill a query triggers runs
// under the query's context, so a cancellation stops it and leaves the
// cache unfilled for the next caller.
func TestQueryFillHonoursContext(t *testing.T) {
	ds, err := NewDataset(testPoints(500, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &errAfterFirst{Context: context.Background()}
	if _, err := ds.QueryContext(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("want an error wrapping context.Canceled, got %v", err)
	}
	if st := ds.snap(); st.skyDone.Load() || st.happyDone.Load() {
		t.Fatal("a canceled fill filled its cache")
	}
	if _, err := ds.Query(5); err != nil {
		t.Fatalf("the query after the canceled fill: %v", err)
	}
}
