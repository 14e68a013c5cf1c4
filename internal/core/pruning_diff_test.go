package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/skyline"
)

// The extreme-set pruning contract (DESIGN.md §12) is bit-exactness,
// not approximation: every evaluator must return the identical
// float64 bits whether the max-over-D side scans the full dataset or
// only the skyline, at every worker count. These tests are the
// enforcement — d from planar to 6-dimensional, the three synthetic
// distributions, several seeds, workers hitting the inline cutoff
// (1), the bench width (4) and a non-divisor width (7).

// prunedPair builds a full-scan and a skyline-pruned EvalIndex over
// the same points, plus a GeoGreedy selection to evaluate.
func prunedPair(t *testing.T, pts []geom.Vector, k int) (*EvalIndex, *EvalIndex, []int) {
	t.Helper()
	full, err := NewEvalIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := NewEvalIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	sky, err := skyline.Of(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pruned.SetExtreme(sky); err != nil {
		t.Fatal(err)
	}
	if pruned.extM == nil || full.extM != nil {
		t.Fatal("pruning flags wired backwards")
	}
	res, err := GeoGreedyParCtx(context.Background(), pts, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return full, pruned, res.Indices
}

func TestPrunedEvaluatorsBitIdentical(t *testing.T) {
	ctx := context.Background()
	gens := []struct {
		name string
		fn   func(n, d int, seed int64) ([]geom.Vector, error)
	}{
		{"independent", dataset.Independent},
		{"correlated", dataset.Correlated},
		{"anticorrelated", dataset.AntiCorrelated},
	}
	workerCounts := []int{1, 4, 7}

	for d := 2; d <= 6; d++ {
		for _, g := range gens {
			for _, seed := range []int64{3, 20140331} {
				pts, err := g.fn(220, d, seed)
				if err != nil {
					t.Fatal(err)
				}
				full, pruned, sel := prunedPair(t, pts, 5)

				// Reference values from the sequential full scan.
				refMRR, err := full.MRRGeometricParCtx(ctx, sel, 1)
				if err != nil {
					t.Fatalf("d=%d %s seed=%d: %v", d, g.name, seed, err)
				}
				refSampled, refAvg, err := full.SampledRegretParCtx(ctx, sel, 48, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				refW, refWitness, err := full.WorstUtilityParCtx(ctx, sel, 1)
				if err != nil {
					t.Fatal(err)
				}

				for _, x := range []struct {
					name string
					ei   *EvalIndex
				}{{"full", full}, {"pruned", pruned}} {
					for _, w := range workerCounts {
						mrr, err := x.ei.MRRGeometricParCtx(ctx, sel, w)
						if err != nil {
							t.Fatalf("d=%d %s seed=%d %s workers=%d: %v", d, g.name, seed, x.name, w, err)
						}
						if math.Float64bits(mrr) != math.Float64bits(refMRR) {
							t.Errorf("d=%d %s seed=%d %s workers=%d: MRRGeometric %v != reference %v",
								d, g.name, seed, x.name, w, mrr, refMRR)
						}
						sampled, avg, err := x.ei.SampledRegretParCtx(ctx, sel, 48, seed, w)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(sampled) != math.Float64bits(refSampled) {
							t.Errorf("d=%d %s seed=%d %s workers=%d: MRRSampled %v != reference %v",
								d, g.name, seed, x.name, w, sampled, refSampled)
						}
						if math.Float64bits(avg) != math.Float64bits(refAvg) {
							t.Errorf("d=%d %s seed=%d %s workers=%d: AverageRegretSampled %v != reference %v",
								d, g.name, seed, x.name, w, avg, refAvg)
						}
						wu, witness, err := x.ei.WorstUtilityParCtx(ctx, sel, w)
						if err != nil {
							t.Fatal(err)
						}
						if witness == refWitness {
							if len(wu) != len(refW) {
								t.Fatalf("d=%d %s seed=%d %s workers=%d: weight dim %d != %d",
									d, g.name, seed, x.name, w, len(wu), len(refW))
							}
							for j := range wu {
								if math.Float64bits(wu[j]) != math.Float64bits(refW[j]) {
									t.Errorf("d=%d %s seed=%d %s workers=%d: weight[%d] %v != reference %v",
										d, g.name, seed, x.name, w, j, wu[j], refW[j])
								}
							}
						} else {
							// The documented caveat (DESIGN.md §12): the
							// pruned scan may name a different witness only
							// when a dominated point ties its dominator's
							// support to the last bit — verify the tie is
							// exact, so the regret value is still identical.
							hull, err := buildHull(ctx, pts, sel)
							if err != nil {
								t.Fatal(err)
							}
							s1, _ := hull.supportOf(pts[refWitness])
							s2, _ := hull.supportOf(pts[witness])
							if math.Float64bits(s1) != math.Float64bits(s2) {
								t.Errorf("d=%d %s seed=%d %s workers=%d: witness %d (support %v) != reference %d (support %v) without an exact tie",
									d, g.name, seed, x.name, w, witness, s2, refWitness, s1)
							}
						}
					}
				}
			}
		}
	}
}

// TestPrunedRegretOfBitIdentical pins the single-utility evaluator on
// hand-picked weight shapes (axis-aligned, uniform, skewed) — the
// exactness lemma's base case.
func TestPrunedRegretOfBitIdentical(t *testing.T) {
	for d := 2; d <= 6; d++ {
		pts, err := dataset.AntiCorrelated(180, d, int64(d))
		if err != nil {
			t.Fatal(err)
		}
		full, pruned, sel := prunedPair(t, pts, 4)

		weights := []geom.Vector{
			make(geom.Vector, d), // axis e0, set below
			make(geom.Vector, d), // uniform
			make(geom.Vector, d), // skewed
		}
		weights[0][0] = 1
		for j := 0; j < d; j++ {
			weights[1][j] = 1 / float64(d)
			weights[2][j] = float64(j+1) / float64(d*d)
		}
		for wi, w := range weights {
			a, err := full.RegretOf(sel, w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pruned.RegretOf(sel, w)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("d=%d weight %d: full %v != pruned %v", d, wi, a, b)
			}
		}
	}
}

// TestSetExtremeRejectsBadInput pins the validation: the extreme set
// may come from a snapshot, so garbage must be an error, not a wrong
// answer later.
func TestSetExtremeRejectsBadInput(t *testing.T) {
	pts, err := dataset.Independent(50, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewEvalIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string][]int{
		"empty":         {},
		"out of range":  {0, 50},
		"negative":      {-1, 3},
		"not ascending": {4, 4},
		"descending":    {9, 2},
	} {
		if err := x.SetExtreme(idx); err == nil {
			t.Errorf("SetExtreme accepted %s extreme set %v", name, idx)
		}
	}
	if x.extM != nil {
		t.Error("rejected extreme sets must not install pruning")
	}
}
