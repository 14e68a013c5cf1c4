package kregret

// Differential suite of the default serving path (DESIGN.md §10):
// every default answer an Engine serves from its prefix list must
// equal the per-query solver's answer on the same epoch — indices,
// MRR bits, Algorithm and Degraded — whatever order the ks arrive in,
// whichever configuration serves them, and across the folds that
// share or replace the list.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// diffAnswer reports how got differs from want, or nil when they are
// the same answer bit for bit.
func diffAnswer(got, want *Answer) error {
	switch {
	case !slices.Equal(got.Indices, want.Indices):
		return fmt.Errorf("indices %v, want %v", got.Indices, want.Indices)
	case math.Float64bits(got.MRR) != math.Float64bits(want.MRR):
		return fmt.Errorf("MRR %x, want %x", math.Float64bits(got.MRR), math.Float64bits(want.MRR))
	case got.Algorithm != want.Algorithm || got.Degraded != want.Degraded:
		return fmt.Errorf("%v degraded=%v, want %v degraded=%v", got.Algorithm, got.Degraded, want.Algorithm, want.Degraded)
	}
	return nil
}

// kOrders lists 1..n ascending, descending and shuffled.
func kOrders(n int) map[string][]int {
	asc := make([]int, n)
	for i := range asc {
		asc[i] = i + 1
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(asc)
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return map[string][]int{"ascending": asc, "descending": desc, "shuffled": shuffled}
}

// remapAnswer returns ans with its indices mapped through m.
func remapAnswer(ans *Answer, m []int) *Answer {
	out := *ans
	out.Indices = make([]int, len(ans.Indices))
	for i, c := range ans.Indices {
		out.Indices[i] = m[c]
	}
	return &out
}

// TestEngineDefaultPathMatchesDataset is the differential suite: for k
// from 1 to |candidates| + 2 in ascending, descending and shuffled
// order, each on a fresh engine so the list grows along a different
// path, every default answer equals the solver's. The reference is
// Dataset.Query on the epoch, for the sharded eps = 0.1 engine the
// merged core dataset's Query remapped to global indices; S = 1 with
// eps = 0 must be byte-identical to the unsharded answer.
func TestEngineDefaultPathMatchesDataset(t *testing.T) {
	ds, err := NewDataset(testPoints(400, 4, 21))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	fullPath := filepath.Join(dir, "full.snap")
	if err := full.SaveFile(fullPath, ds); err != nil {
		t.Fatal(err)
	}
	partial, err := ds.BuildIndexUpTo(5)
	if err != nil {
		t.Fatal(err)
	}
	partialPath := filepath.Join(dir, "partial.snap")
	if err := partial.SaveFile(partialPath, ds); err != nil {
		t.Fatal(err)
	}

	configs := []struct {
		name string
		opts []EngineOption
		// loaded: the engine must serve the snapshot file, not rebuild it.
		loaded bool
	}{
		{name: "unsharded"},
		{name: "sharded-1-0", opts: []EngineOption{WithShardedServing(1, 0)}},
		{name: "sharded-2-0.1", opts: []EngineOption{WithShardedServing(2, 0.1)}},
		{name: "snapshot-full", opts: []EngineOption{WithSnapshot(fullPath)}, loaded: true},
		{name: "snapshot-partial", opts: []EngineOption{WithSnapshot(partialPath)}, loaded: true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			probe, err := NewEngine(ds, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ep := probe.epoch.Load()
			ref, m := ep.ds, []int(nil)
			if ep.serveDS != nil && cfg.name == "sharded-2-0.1" {
				ref, m = ep.serveDS, ep.coreMap
			}
			cand, err := ref.HappyPoints()
			if err != nil {
				t.Fatal(err)
			}
			shutdownEngine(t, probe)
			for order, ks := range kOrders(len(cand) + 2) {
				eng, err := NewEngine(ds, cfg.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.loaded && eng.Stats().SnapshotRebuilt {
					t.Fatal("snapshot rebuilt instead of loaded")
				}
				for _, k := range ks {
					got, err := eng.Query(context.Background(), k)
					if err != nil {
						t.Fatalf("%s k=%d: %v", order, k, err)
					}
					want, err := ref.Query(k)
					if err != nil {
						t.Fatal(err)
					}
					if m != nil {
						want = remapAnswer(want, m)
					}
					if err := diffAnswer(got, want); err != nil {
						t.Fatalf("%s k=%d: %v", order, k, err)
					}
					if cfg.name == "sharded-1-0" {
						unsharded, err := ds.Query(k)
						if err != nil {
							t.Fatal(err)
						}
						if err := diffAnswer(got, unsharded); err != nil {
							t.Fatalf("%s k=%d: S=1 eps=0 differs from unsharded: %v", order, k, err)
						}
					}
				}
				shutdownEngine(t, eng)
			}
		})
	}
}

// TestEngineAnswerOwnsItsIndices: an answer served from the list is a
// copy; overwriting its indices changes no later answer.
func TestEngineAnswerOwnsItsIndices(t *testing.T) {
	eng, ds := testEngine(t)
	defer shutdownEngine(t, eng)
	want, err := ds.Query(6)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := eng.Query(context.Background(), 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffAnswer(got, want); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range got.Indices {
			got.Indices[i] = -1
		}
	}
	// A smaller k reads the same list prefix.
	got, err := eng.Query(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := ds.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffAnswer(got, want3); err != nil {
		t.Fatal(err)
	}
}

// TestEngineListGrowsByDoubling: an uncovered k rebuilds the list to
// max(k, 2·length); a covered k leaves it as it is.
func TestEngineListGrowsByDoubling(t *testing.T) {
	ds, err := NewDataset(testPoints(2000, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	cell := func() *prefixCell {
		v := eng.epoch.Load().ds.snap().prefix.Load()
		if v == nil {
			t.Fatal("default query left no prefix view")
		}
		return v.cell
	}
	for _, step := range []struct{ k, wantLen int }{{5, 5}, {3, 5}, {6, 10}, {25, 25}, {26, 50}, {40, 50}} {
		if _, err := eng.Query(context.Background(), step.k); err != nil {
			t.Fatal(err)
		}
		l := cell().list.Load()
		if l.Len() != step.wantLen && !l.Covers(l.Len()+1) {
			t.Fatalf("after k=%d the list holds %d entries, want %d", step.k, l.Len(), step.wantLen)
		}
	}
}

// foldCase is one mutation of the fold suite and whether it keeps
// D_happy.
type foldCase struct {
	name  string
	mut   func(t *testing.T, ds *Dataset, happy []int) Mutation
	share bool
}

// dominated returns the first point off the skyline: deleting it
// changes neither the skyline nor the happy points among it.
func dominated(t *testing.T, ds *Dataset) int {
	t.Helper()
	sky, err := ds.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if _, ok := slices.BinarySearch(sky, i); !ok {
			return i
		}
	}
	t.Fatal("every point is on the skyline")
	return -1
}

// stateQuery answers a default query on an epoch state the way the
// engine does, whether or not its list covers k.
func stateQuery(t *testing.T, st *dsState, k int) *Answer {
	t.Helper()
	v, err := st.listView()
	if err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	ans, _, err := v.query(context.Background(), st, k, 1, &o)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

var foldCases = []foldCase{
	{name: "insert-dominated", share: true, mut: func(t *testing.T, ds *Dataset, _ []int) Mutation {
		p := make(Point, ds.Dim())
		for j := range p {
			p[j] = 0.01
		}
		return InsertMutation(p)
	}},
	{name: "delete-dominated", share: true, mut: func(t *testing.T, ds *Dataset, _ []int) Mutation {
		return DeleteMutation(dominated(t, ds))
	}},
	{name: "insert-dominating", mut: func(t *testing.T, ds *Dataset, _ []int) Mutation {
		p := make(Point, ds.Dim())
		for j := range p {
			p[j] = 1
		}
		return InsertMutation(p)
	}},
	{name: "delete-happy", mut: func(t *testing.T, ds *Dataset, happy []int) Mutation {
		return DeleteMutation(happy[len(happy)/2])
	}},
}

// TestFoldSharesPrefixCell: a fold that keeps D_happy hands the new
// epoch its predecessor's list cell, and one that changes it starts a
// fresh cell; either way the new epoch answers like a fresh dataset
// over its points, and so does the old epoch still.
func TestFoldSharesPrefixCell(t *testing.T) {
	for _, fc := range foldCases {
		t.Run(fc.name, func(t *testing.T) {
			eng, _ := testEngine(t)
			defer shutdownEngine(t, eng)
			ctx := context.Background()
			if _, err := eng.Query(ctx, 8); err != nil {
				t.Fatal(err)
			}
			old := eng.epoch.Load()
			happy, err := old.ds.HappyPoints()
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Apply(ctx, fc.mut(t, old.ds, happy)); err != nil {
				t.Fatal(err)
			}
			cur := eng.epoch.Load()
			oldCell := old.ds.snap().prefix.Load().cell
			v := cur.ds.snap().prefix.Load()
			if shared := v != nil && v.cell == oldCell; shared != fc.share {
				t.Fatalf("new epoch shares the cell: %v, want %v", shared, fc.share)
			}
			fresh, err := NewDataset(vecsToPoints(cur.ds.snap().pts), WithoutNormalization())
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{3, 8, 12, 1, 40} {
				got, err := eng.Query(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Query(k)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffAnswer(got, want); err != nil {
					t.Fatalf("k=%d after the fold: %v", k, err)
				}
				gotOld := stateQuery(t, old.ds.snap(), k)
				wantOld, err := old.ds.Query(k)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffAnswer(gotOld, wantOld); err != nil {
					t.Fatalf("k=%d on the old epoch: %v", k, err)
				}
			}
		})
	}
}

// TestSnapshotFoldKeepingHappyReusesList: on a WithSnapshot engine a
// fold that keeps D_happy serves and persists its predecessor's
// complete list instead of rebuilding it.
func TestSnapshotFoldKeepingHappyReusesList(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	eng, err := NewEngine(ds, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	before := eng.Index()
	happy, err := eng.Dataset().HappyPoints()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(ctx, foldCases[1].mut(t, eng.Dataset(), happy)); err != nil {
		t.Fatal(err)
	}
	after := eng.Index()
	if after.list != before.list {
		t.Fatal("a fold that kept D_happy rebuilt the list")
	}
	loaded, err := LoadFile(path, eng.Dataset())
	if err != nil {
		t.Fatalf("persisted list does not load against the new epoch: %v", err)
	}
	for _, k := range []int{1, 2, 5, 9} {
		want, err := eng.Dataset().Query(k)
		if err != nil {
			t.Fatal(err)
		}
		for name, idx := range map[string]*Index{"served": after, "loaded": loaded} {
			got, err := idx.Query(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffAnswer(got, want); err != nil {
				t.Fatalf("%s index k=%d: %v", name, k, err)
			}
		}
	}
}

// TestEngineGrowthRacesFolds runs concurrent default queries with
// growing k while Apply folds (run it under -race). A query whose
// epoch did not change while it ran must equal that epoch's solver
// answer.
func TestEngineGrowthRacesFolds(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownEngine(t, eng)
	ctx := context.Background()
	if _, err := eng.Query(ctx, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1 + g; k <= 40; k += 3 {
				ep := eng.epoch.Load()
				got, err := eng.Query(ctx, k)
				if err != nil {
					errs <- err
					return
				}
				if eng.epoch.Load() != ep {
					continue
				}
				want, err := ep.ds.Query(k)
				if err != nil {
					errs <- err
					return
				}
				if err := diffAnswer(got, want); err != nil {
					errs <- fmt.Errorf("k=%d epoch %d: %w", k, ep.num, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 30; i++ {
			m := DeleteMutation(rng.Intn(eng.Dataset().Len()))
			if i%2 == 0 {
				m = InsertMutation(Point{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()})
			}
			if err := eng.Apply(ctx, m); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestListAnswerAllocs pins the cost of a list-served answer: the
// Answer and its indices, whatever k.
func TestListAnswerAllocs(t *testing.T) {
	eng, _ := testEngine(t)
	defer shutdownEngine(t, eng)
	if _, err := eng.Query(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	v := eng.epoch.Load().ds.snap().prefix.Load()
	l := v.cell.list.Load()
	for _, k := range []int{1, 20} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := listAnswer(l, v.cand, k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Fatalf("k=%d: a list-served answer makes %v allocations, want 2", k, allocs)
		}
	}
}
