package kregret

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestQueryExact2D(t *testing.T) {
	ds, err := NewDataset(testPoints(80, 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ds.QueryExact2D(4)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := ds.Query(4)
	if err != nil {
		t.Fatal(err)
	}
	if exact.MRR > greedy.MRR+1e-6 {
		t.Fatalf("exact %v worse than greedy %v", exact.MRR, greedy.MRR)
	}
	// The reported MRR must match independent evaluation.
	mrr, err := ds.EvaluateMRR(exact.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mrr-exact.MRR) > 1e-9 {
		t.Fatalf("reported %v vs evaluated %v", exact.MRR, mrr)
	}
	// Wrong dimensionality.
	ds3, err := NewDataset(testPoints(20, 3, 12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds3.QueryExact2D(4); err == nil {
		t.Fatal("3-d dataset accepted")
	}
	if _, err := ds.QueryExact2D(0); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
}

func TestQueryAverage(t *testing.T) {
	ds, err := NewDataset(testPoints(150, 3, 13))
	if err != nil {
		t.Fatal(err)
	}
	ans, avg, err := ds.QueryAverage(6, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Indices) != 6 {
		t.Fatalf("%d indices", len(ans.Indices))
	}
	if avg < 0 || avg > ans.MRR+1e-9 {
		t.Fatalf("average %v vs max %v", avg, ans.MRR)
	}
	// Both regrets come from the epoch's one evaluator.
	mrr, err := ds.EvaluateMRR(ans.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ans.MRR) != math.Float64bits(mrr) {
		t.Fatalf("QueryAverage MRR %v != EvaluateMRR %v", ans.MRR, mrr)
	}
	if _, _, err := ds.QueryAverage(0, 100, 1); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
}

func TestInteractiveSessionFlow(t *testing.T) {
	ds, err := NewDataset(testPoints(120, 3, 14))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ds.NewInteractiveSession()
	if err != nil {
		t.Fatal(err)
	}
	hidden := Point{0.6, 0.3, 0.1}
	_, bound0, err := s.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		shown, err := s.Show(3)
		if err != nil {
			t.Fatal(err)
		}
		best, bestU := 0, math.Inf(-1)
		for i, idx := range shown {
			p := ds.Point(idx)
			u := hidden[0]*p[0] + hidden[1]*p[1] + hidden[2]*p[2]
			if u > bestU {
				best, bestU = i, u
			}
		}
		if err := s.Choose(best); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rounds() != 6 {
		t.Fatalf("rounds %d", s.Rounds())
	}
	_, bound, err := s.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if bound > bound0+1e-9 {
		t.Fatalf("bound rose: %v → %v", bound0, bound)
	}
	if _, err := s.EstimatedUtility(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexSaveLoad(t *testing.T) {
	ds, err := NewDataset(testPoints(120, 3, 15))
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
	loaded, err := LoadIndex(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 5, 9} {
		a, err := idx.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Indices, b.Indices) || a.MRR != b.MRR {
			t.Fatalf("k=%d mismatch after load", k)
		}
	}
	// Loading against a different dataset must fail.
	other, err := NewDataset(testPoints(120, 3, 16))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := idx.Save(&buf2, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(&buf2, other); err != ErrIndexMismatch {
		t.Fatalf("mismatched load: %v", err)
	}
	// Garbage must fail.
	if _, err := LoadIndex(bytes.NewBufferString("nope"), ds); err == nil {
		t.Fatal("garbage accepted")
	}
}
