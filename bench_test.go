package kregret

// Benchmarks mirroring the paper's evaluation section. Each table
// and figure of Section V has a corresponding Benchmark* here; the
// cmd/experiments binary runs the same code at full dataset sizes and
// prints the tables (see DESIGN.md §5 and EXPERIMENTS.md).
//
// Benchmarks run on size-capped stand-ins so that `go test -bench=.`
// finishes in minutes; the shapes under study (GeoGreedy ≪ Greedy,
// StoredList query ≈ O(k), growth with n, d and k) are present at
// these sizes too.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
)

// benchCap caps the real stand-ins for benchmarking.
const benchCap = 20000

type preparedReal struct {
	pipe *exp.RealPipeline
	cand []geom.Vector // happy candidates
	sky  []geom.Vector // skyline candidates
	list *core.StoredList
}

var (
	prepMu   sync.Mutex
	prepared = map[dataset.RealName]*preparedReal{}
)

func prepReal(b *testing.B, name dataset.RealName) *preparedReal {
	b.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := prepared[name]; ok {
		return p
	}
	pipe, err := exp.PrepareReal(name, benchCap)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := pipe.CandidatePoints(pipe.Happy)
	if err != nil {
		b.Fatal(err)
	}
	skyPts, err := pipe.CandidatePoints(pipe.Sky)
	if err != nil {
		b.Fatal(err)
	}
	list, err := core.BuildStoredList(cand)
	if err != nil {
		b.Fatal(err)
	}
	p := &preparedReal{pipe: pipe, cand: cand, sky: skyPts, list: list}
	prepared[name] = p
	return p
}

// BenchmarkTable3 measures the full candidate-set pipeline (skyline →
// happy → hull extreme points) per dataset: the preprocessing cost
// behind Table III.
func BenchmarkTable3(b *testing.B) {
	for _, name := range dataset.RealNames {
		b.Run(string(name), func(b *testing.B) {
			pts, err := dataset.RealScaled(name, benchCap)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sky, err := skyline.Of(pts)
				if err != nil {
					b.Fatal(err)
				}
				hp := happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
				if _, err := core.ConvexAmongHappy(pts, hp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7 measures GeoGreedy answer computation over happy
// candidates across the paper's k sweep (regret values themselves are
// printed by cmd/experiments -exp fig7).
func BenchmarkFig7(b *testing.B) {
	for _, name := range dataset.RealNames {
		p := prepReal(b, name)
		for _, k := range []int{10, 50, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.GeoGreedy(p.cand, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8 is the skyline-candidate variant (Figure 8 / 10).
func BenchmarkFig8(b *testing.B) {
	for _, name := range dataset.RealNames {
		p := prepReal(b, name)
		b.Run(fmt.Sprintf("%s/k=10", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(p.sky, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9 compares the three algorithms' query time on happy
// candidates (Figure 9): Greedy vs GeoGreedy vs StoredList.
func BenchmarkFig9(b *testing.B) {
	const k = 20
	for _, name := range dataset.RealNames {
		p := prepReal(b, name)
		b.Run(fmt.Sprintf("%s/Greedy", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Greedy(p.cand, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/GeoGreedy", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(p.cand, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/StoredList", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.list.Query(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10 compares Greedy and GeoGreedy over skyline
// candidates (Figure 10).
func BenchmarkFig10(b *testing.B) {
	const k = 20
	for _, name := range []dataset.RealName{dataset.NBA, dataset.Color} {
		p := prepReal(b, name)
		b.Run(fmt.Sprintf("%s/Greedy", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Greedy(p.sky, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/GeoGreedy", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(p.sky, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11 measures the total-time components (Figure 11):
// preprocessing (skyline + happy) and StoredList materialization.
func BenchmarkFig11(b *testing.B) {
	for _, name := range []dataset.RealName{dataset.NBA, dataset.Stocks} {
		b.Run(fmt.Sprintf("%s/preprocess", name), func(b *testing.B) {
			pts, err := dataset.RealScaled(name, benchCap)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sky, err := skyline.Of(pts)
				if err != nil {
					b.Fatal(err)
				}
				happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
			}
		})
		p := prepReal(b, name)
		b.Run(fmt.Sprintf("%s/materialize", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildStoredList(p.cand); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// synthCands prepares happy candidates for one synthetic
// anti-correlated instance.
func synthCands(b *testing.B, n, d int) []geom.Vector {
	b.Helper()
	pts, err := dataset.AntiCorrelated(n, d, 20140331)
	if err != nil {
		b.Fatal(err)
	}
	sky, err := skyline.Of(pts)
	if err != nil {
		b.Fatal(err)
	}
	hp := happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
	cand, err := core.Select(pts, hp)
	if err != nil {
		b.Fatal(err)
	}
	return cand
}

// BenchmarkFig12a_13a: vary dimensionality (Figures 12(a)/13(a)).
func BenchmarkFig12a_13a(b *testing.B) {
	for _, d := range []int{2, 4, 6, 8} {
		cand := synthCands(b, exp.DefaultSynthN, d)
		b.Run(fmt.Sprintf("GeoGreedy/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(cand, exp.DefaultSynthK); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Greedy/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Greedy(cand, exp.DefaultSynthK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12b_13b: vary dataset size (Figures 12(b)/13(b)).
func BenchmarkFig12b_13b(b *testing.B) {
	for _, n := range []int{2500, 10000, 40000} {
		cand := synthCands(b, n, exp.DefaultSynthD)
		b.Run(fmt.Sprintf("GeoGreedy/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(cand, exp.DefaultSynthK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12c_13c: vary k (Figures 12(c)/13(c)).
func BenchmarkFig12c_13c(b *testing.B) {
	cand := synthCands(b, exp.DefaultSynthN, exp.DefaultSynthD)
	for _, k := range []int{10, 40, 70, 100} {
		b.Run(fmt.Sprintf("GeoGreedy/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(cand, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12d_13d: very large k (Figures 12(d)/13(d)).
func BenchmarkFig12d_13d(b *testing.B) {
	cand := synthCands(b, exp.DefaultSynthN, exp.DefaultSynthD)
	for _, k := range []int{200, 800} {
		b.Run(fmt.Sprintf("GeoGreedy/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GeoGreedy(cand, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeadline is the §V-C comparison at bench scale: all three
// algorithms on the same anti-correlated instance, k = 100.
func BenchmarkHeadline(b *testing.B) {
	cand := synthCands(b, 50000, exp.DefaultSynthD)
	// Materialize enough to serve k = 100 (matching exp.Headline);
	// the full build over a 10k+-point anti-correlated hull is its
	// own experiment (Figure 11), not a fixture.
	list, err := core.BuildStoredListUpTo(cand, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Greedy(cand, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GeoGreedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GeoGreedy(cand, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StoredListQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := list.Query(100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- micro-benchmarks of the substrates -------------------------------

func BenchmarkHappyFilter(b *testing.B) {
	pts, err := dataset.AntiCorrelated(20000, 5, 7)
	if err != nil {
		b.Fatal(err)
	}
	sky, err := skyline.Of(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
	}
}

// BenchmarkMRREvaluation prices the evaluator on a fresh full-scan
// EvalIndex per call; its LP oracle counterpart is
// BenchmarkMRREvaluation/LP in internal/core.
func BenchmarkMRREvaluation(b *testing.B) {
	cand := synthCands(b, 10000, 5)
	res, err := core.GeoGreedy(cand, 10)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("Geometric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x, err := core.NewEvalIndex(cand)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := x.MRRGeometricParCtx(ctx, res.Indices, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sampled1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x, err := core.NewEvalIndex(cand)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := x.SampledRegretParCtx(ctx, res.Indices, 1000, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
