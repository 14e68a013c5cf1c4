package kregret

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestEngineParallelismDeterminism race-stresses intra-query
// parallelism under inter-query concurrency: at GOMAXPROCS 8 a
// 2-worker engine gives every query a 4-wide fan-out and serves
// overlapping queries from 8 goroutines, and every answer must be
// byte-identical to the sequential reference computed at GOMAXPROCS 1.
// Run with -race (the Makefile's test-race target does): the chunk
// claims, per-slot writes and argmax merges in internal/parallel are
// exactly the state this test hammers.
func TestEngineParallelismDeterminism(t *testing.T) {
	ds, err := NewDataset(testPoints(900, 3, 19))
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{3, 5, 8}
	ref := make(map[int]*Answer, len(ks))
	setGOMAXPROCS(t, 1)
	for _, k := range ks {
		ans, err := ds.Query(k, WithCandidates(CandidatesAll))
		if err != nil {
			t.Fatal(err)
		}
		ref[k] = ans
	}

	setGOMAXPROCS(t, 8)
	eng, err := NewEngine(ds, WithWorkers(2), WithQueueDepth(32))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if eng.perQueryWorkers != 4 {
		t.Fatalf("perQueryWorkers = %d, want 8/2 = 4", eng.perQueryWorkers)
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := ks[(g+r)%len(ks)]
				ans, err := eng.Query(context.Background(), k, WithCandidates(CandidatesAll))
				if err != nil {
					t.Errorf("goroutine %d k=%d: %v", g, k, err)
					continue
				}
				want := ref[k]
				if !reflect.DeepEqual(ans.Indices, want.Indices) {
					t.Errorf("goroutine %d k=%d: indices %v, want %v", g, k, ans.Indices, want.Indices)
				}
				if ans.MRR != want.MRR {
					t.Errorf("goroutine %d k=%d: MRR %.17g, want %.17g", g, k, ans.MRR, want.MRR)
				}
				if ans.Degraded {
					t.Errorf("goroutine %d k=%d: unexpected degradation: %s", g, k, ans.FallbackReason)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineParallelismBudgetDerivation pins the budget → per-query
// worker split at the unit level. The engine's budget is GOMAXPROCS,
// which a default pool (GOMAXPROCS workers) consumes entirely, so
// {8, 8} is the default case; {2, 8} is the floor of one.
func TestEngineParallelismBudgetDerivation(t *testing.T) {
	cases := []struct {
		budget, poolWorkers, want int
	}{
		{8, 2, 4},
		{8, 8, 1},
		{2, 8, 1},
		{9, 2, 4},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := derivePerQueryWorkers(c.budget, c.poolWorkers); got != c.want {
			t.Errorf("derivePerQueryWorkers(%d, %d) = %d, want %d",
				c.budget, c.poolWorkers, got, c.want)
		}
	}
}
