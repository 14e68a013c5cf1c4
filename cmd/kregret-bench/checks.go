package main

import (
	"fmt"
	"math"

	kregret "repro"
)

// check is the outcome of one correctness check. Checks run outside
// every timed phase; any failure makes the run's exit status nonzero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// sameAnswer reports whether two answers select the same indices in
// the same order with bit-identical regret ratios.
func sameAnswer(want, got *kregret.Answer) error {
	if len(want.Indices) != len(got.Indices) {
		return fmt.Errorf("selection sizes differ: %d vs %d", len(want.Indices), len(got.Indices))
	}
	for i := range want.Indices {
		if want.Indices[i] != got.Indices[i] {
			return fmt.Errorf("selections differ at position %d: %d vs %d", i, want.Indices[i], got.Indices[i])
		}
	}
	if math.Float64bits(want.MRR) != math.Float64bits(got.MRR) {
		return fmt.Errorf("regret ratios differ: %v vs %v", want.MRR, got.MRR)
	}
	return nil
}

// fingerprint hashes an answer's selection and regret ratio (FNV-1a),
// so every request's answer can be compared after the load phase
// without keeping millions of answers alive during it.
func fingerprint(a *kregret.Answer) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range a.Indices {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return (h ^ math.Float64bits(a.MRR)) * 1099511628211
}

// checkIdentical verifies that every answered request for k returned
// the reference answer for k.
func checkIdentical(ks []int, fps []uint64, answered []bool, refs map[int]*kregret.Answer) error {
	want := make(map[int]uint64, len(refs))
	for k, a := range refs {
		want[k] = fingerprint(a)
	}
	for i, k := range ks {
		if !answered[i] {
			continue
		}
		if fps[i] != want[k] {
			return fmt.Errorf("request %d (k=%d) got a different answer than the other requests with k=%d", i, k, k)
		}
	}
	return nil
}

// checkExactMRR verifies that an answer's reported regret ratio is the
// exact one the dataset's evaluator computes for its selection.
func checkExactMRR(ds *kregret.Dataset, a *kregret.Answer) error {
	mrr, err := ds.EvaluateMRR(a.Indices)
	if err != nil {
		return err
	}
	if math.Float64bits(mrr) != math.Float64bits(a.MRR) {
		return fmt.Errorf("k=%d: Answer.MRR %v, EvaluateMRR %v", len(a.Indices), a.MRR, mrr)
	}
	return nil
}

// checkShardBound verifies the ε bound of a sharded answer: its regret
// over the full dataset exceeds the reported one by at most eps.
func checkShardBound(trueMRR float64, a *kregret.Answer, eps float64) error {
	if !(trueMRR <= a.MRR+eps) {
		return fmt.Errorf("true regret %v exceeds reported %v + eps %v", trueMRR, a.MRR, eps)
	}
	return nil
}

// checkSameDataset verifies that two datasets hold the same points,
// coordinate for coordinate, bit for bit.
func checkSameDataset(want, got *kregret.Dataset) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("sizes differ: %d vs %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		p, q := want.Point(i), got.Point(i)
		for j := range p {
			if math.Float64bits(p[j]) != math.Float64bits(q[j]) {
				return fmt.Errorf("point %d coordinate %d differs: %v vs %v", i, j, p[j], q[j])
			}
		}
	}
	return nil
}
