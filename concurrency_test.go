package kregret

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// Eight goroutines hammer one shared Dataset and one shared Index
// with a mix of queries, evaluations and lazy accessors. Run with
// -race (the Makefile's test-race target does): the caches fillOnce
// fills are the only mutable state, and this test is their proof.
func TestConcurrentDatasetAndIndex(t *testing.T) {
	ds, err := NewDataset(testPoints(300, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ds.Query(5)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*8)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ans, err := ds.Query(5)
				if err != nil {
					errs <- err
					continue
				}
				if ans.MRR != ref.MRR {
					t.Errorf("goroutine %d: MRR %v, want %v", g, ans.MRR, ref.MRR)
				}
				if _, err := ds.QueryContext(context.Background(), 3, WithAlgorithm(AlgoCube)); err != nil {
					errs <- err
				}
				if _, err := ds.EvaluateMRR(ans.Indices); err != nil {
					errs <- err
				}
				if _, _, err := ds.WorstUtility(ans.Indices); err != nil {
					errs <- err
				}
				if _, err := ds.Skyline(); err != nil {
					errs <- err
				}
				if _, err := ds.HappyPoints(); err != nil {
					errs <- err
				}
				if _, err := ds.ConvexPoints(); err != nil {
					errs <- err
				}
				if _, err := idx.Query(4); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent access failed: %v", err)
	}
}

// Race specifically on the FIRST lazy computation: a fresh Dataset,
// all goroutines released at once onto the cold caches. Every caller
// must observe the same candidate sets.
func TestConcurrentFirstAccess(t *testing.T) {
	for round := 0; round < 3; round++ {
		ds, err := NewDataset(testPoints(400, 4, int64(round)))
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		start := make(chan struct{})
		results := make([][]int, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				// Odd goroutines start from the deepest cache (conv
				// pulls happy pulls skyline), even ones from the
				// shallowest, so the Once chain is entered from both
				// ends simultaneously.
				if g%2 == 0 {
					if _, err := ds.Skyline(); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				} else if _, err := ds.ConvexPoints(); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				happy, err := ds.HappyPoints()
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				results[g] = happy
			}(g)
		}
		close(start)
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if !reflect.DeepEqual(results[0], results[g]) {
				t.Fatalf("round %d: goroutine %d saw different happy points", round, g)
			}
		}
	}
}
