package happy

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// witnessesKernel computes the witness array for candidates == sky
// via the sweep: wit[i] is a subjugator of pts[sky[i]] (original
// index) or -1 when sky[i] is happy.
func witnessesKernel(pts []geom.Vector, sky []int) []int32 {
	s := newSubjSweep(geom.Flatten(pts), sky)
	wit := make([]int32, len(sky))
	for i := range sky {
		wit[i] = s.firstSubjugator(int(s.pos[i]))
	}
	return wit
}

var kernelGens = []struct {
	name string
	fn   func(n, d int, seed int64) ([]geom.Vector, error)
}{
	{"independent", dataset.Independent},
	{"correlated", dataset.Correlated},
	{"anticorrelated", dataset.AntiCorrelated},
}

// happySetOf extracts the happy originals from a witness array.
func happySetOf(sky []int, wit []int32) map[int]bool {
	h := make(map[int]bool)
	for i, w := range wit {
		if w == -1 {
			h[sky[i]] = true
		}
	}
	return h
}

// TestKernelMatchesScalarDifferential is the decision-equality pin for
// the blocked sweep: across dimensions and distributions, the kernel
// and the scalar scan must agree on exactly which skyline points are
// happy, and every kernel witness must really subjugate its candidate.
// Witness IDENTITY may differ (sweep order vs ascending order) — only
// validity and the induced happy set are the contract.
func TestKernelMatchesScalarDifferential(t *testing.T) {
	for _, g := range kernelGens {
		for d := 2; d <= 6; d++ {
			pts, err := g.fn(800, d, int64(41*d+len(g.name)))
			if err != nil {
				t.Fatal(err)
			}
			sky := bruteSkyline(pts)
			wk := witnessesKernel(pts, sky)
			ws := witnessesScalar(pts, sky)
			if len(wk) != len(sky) || len(ws) != len(sky) {
				t.Fatalf("%s d=%d: witness lengths %d/%d vs sky %d", g.name, d, len(wk), len(ws), len(sky))
			}
			hk, hs := happySetOf(sky, wk), happySetOf(sky, ws)
			if len(hk) != len(hs) {
				t.Fatalf("%s d=%d: kernel happy |%d| vs scalar |%d|", g.name, d, len(hk), len(hs))
			}
			for p := range hs {
				if !hk[p] {
					t.Fatalf("%s d=%d: point %d happy per scalar, subjugated per kernel", g.name, d, p)
				}
			}
			inSky := make(map[int]bool, len(sky))
			for _, s := range sky {
				inSky[s] = true
			}
			for i, w := range wk {
				if w == -1 {
					continue
				}
				if !inSky[int(w)] {
					t.Fatalf("%s d=%d: witness %d for %d is not a skyline member", g.name, d, w, sky[i])
				}
				if int(w) == sky[i] {
					t.Fatalf("%s d=%d: candidate %d is its own witness", g.name, d, sky[i])
				}
				if !subjugates(pts[w], pts[sky[i]]) {
					t.Fatalf("%s d=%d: claimed witness %d does not subjugate %d", g.name, d, w, sky[i])
				}
			}
		}
	}
}

// TestCertMatchesLegacyCompute ties the certificate path to the scalar
// oracle: HappyPoints() must equal computeAmong on the same skyline,
// for sets on both sides of the kernelMinSky cutoff.
func TestCertMatchesLegacyCompute(t *testing.T) {
	for _, n := range []int{30, 900} {
		for _, g := range kernelGens {
			pts, err := g.fn(n, 4, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			sky := bruteSkyline(pts)
			want := computeAmong(pts, sky, sky)
			got := ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: cert happy |%d| vs legacy |%d|", g.name, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: happy[%d] = %d, want %d", g.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCertParallelDeterministic: the witness array is a pure function
// of (pts, sky) — identical across worker counts, not merely
// set-equal, because every candidate scans the same shared sweep.
func TestCertParallelDeterministic(t *testing.T) {
	pts, err := dataset.AntiCorrelated(1500, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	sky := bruteSkyline(pts)
	if len(sky) < kernelMinSky {
		t.Fatalf("skyline %d too small to exercise the kernel", len(sky))
	}
	base := ComputeAmongSkylineCertParallel(pts, sky, 1)
	for _, w := range []int{2, 4, 8} {
		c := ComputeAmongSkylineCertParallel(pts, sky, w)
		if len(c.Wit) != len(base.Wit) {
			t.Fatalf("workers=%d: wit length %d vs %d", w, len(c.Wit), len(base.Wit))
		}
		for i := range c.Wit {
			if c.Wit[i] != base.Wit[i] {
				t.Fatalf("workers=%d: wit[%d] = %d, sequential %d", w, i, c.Wit[i], base.Wit[i])
			}
		}
	}
}

// TestCertParallelCtxCanceled: cancellation surfaces as an error, on
// both the sequential and the fanned-out path.
func TestCertParallelCtxCanceled(t *testing.T) {
	pts, err := dataset.AntiCorrelated(1500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	sky := bruteSkyline(pts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		if _, err := ComputeAmongSkylineCertParallelCtx(ctx, pts, sky, w); err == nil {
			t.Fatalf("workers=%d: canceled context accepted", w)
		}
	}
}

// randPositive fills a strictly positive vector with mixed magnitudes
// so the decide fuzzing hits sums far from AND near the 1±eps zone.
func randPositive(rng *rand.Rand, d int, scale float64) geom.Vector {
	v := make(geom.Vector, d)
	for j := range v {
		v[j] = (1e-3 + rng.Float64()) * scale
	}
	return v
}

// TestDecideContractRandom pins the three-way contract of decideRow on
// random pairs: 1 must imply subjugation, -1 must imply its absence;
// 0 is unconstrained (the sweep falls back to the scalar path).
// Scales are chosen so candidate sums straddle the decision boundary.
func TestDecideContractRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checked := [3]int{}
	for trial := 0; trial < 200000; trial++ {
		d := 1 + rng.Intn(6)
		scaleQ := []float64{0.2, 1.0 / float64(d), 0.5, 2}[rng.Intn(4)]
		scaleP := []float64{0.2, 1.0 / float64(d), 0.5, 2}[rng.Intn(4)]
		q := randPositive(rng, d, scaleQ)
		p := randPositive(rng, d, scaleP)
		if rng.Intn(16) == 0 {
			copy(q, p) // g(1) = 1 exactly: the unresolved boundary verdict
		}
		sq, sp := q.Sum(), p.Sum()
		const thresh = 1 + eps
		margin := sq - thresh - subjGuard
		v := decideRow(p, q, sq, sp, margin, thresh)
		checked[v+1]++
		want := subjugates(p, q)
		if v == 1 && !want {
			t.Fatalf("decideRow=1 but subjugates=false: p=%v q=%v", p, q)
		}
		if v == -1 && want {
			t.Fatalf("decideRow=-1 but subjugates=true: p=%v q=%v", p, q)
		}
	}
	for i, c := range checked {
		if c == 0 {
			t.Fatalf("verdict %d never produced — fuzz scales degenerate", i-1)
		}
	}
}

// TestDecide4MatchesDecideRow: the scalarized d=4 body must be
// decision-identical to the generic one on the same inputs, including
// the block-probe threshold.
func TestDecide4MatchesDecideRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200000; trial++ {
		scale := []float64{0.2, 0.25, 0.5, 2}[rng.Intn(4)]
		q := randPositive(rng, 4, scale)
		p := randPositive(rng, 4, []float64{0.2, 0.25, 0.5, 2}[rng.Intn(4)])
		sq, sp := q.Sum(), p.Sum()
		thresh := 1 + eps
		if rng.Intn(2) == 0 {
			thresh = 1 + eps + subjGuard // block-probe mode
		}
		margin := sq - thresh - subjGuard
		a := decideRow(p, q, sq, sp, margin, thresh)
		b := decide4(p, q[0], q[1], q[2], q[3], sq, sp, margin, thresh)
		if a != b {
			t.Fatalf("decideRow=%d decide4=%d: p=%v q=%v thresh=%v", a, b, p, q, thresh)
		}
	}
}

// TestBlockProbeSound: rule 2 end to end — when decideRow on a block's
// componentwise maximum (blocked threshold) says -1, no member of the
// block may subjugate the candidate.
func TestBlockProbeSound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20000; trial++ {
		d := 2 + rng.Intn(4)
		q := randPositive(rng, d, []float64{0.3, 1.0 / float64(d), 0.6}[rng.Intn(3)])
		block := make([]geom.Vector, 1+rng.Intn(sweepBlock))
		bx := make(geom.Vector, d)
		for i := range block {
			block[i] = randPositive(rng, d, []float64{0.3, 1.0 / float64(d), 0.6}[rng.Intn(3)])
			for j := range bx {
				bx[j] = math.Max(bx[j], block[i][j])
			}
		}
		sq := q.Sum()
		const thresh = 1 + eps + subjGuard
		margin := sq - thresh - subjGuard
		if decideRow(bx, q, sq, bx.Sum(), margin, thresh) != -1 {
			continue
		}
		for _, p := range block {
			if subjugates(p, q) {
				t.Fatalf("block probe refuted but member %v subjugates %v (bx=%v)", p, q, bx)
			}
		}
	}
}

// FuzzDecideContract extends the random pinning to the fuzzer: any
// positive finite 4+4 coordinates must keep decideRow sound against
// subjugates and identical to decide4.
func FuzzDecideContract(f *testing.F) {
	f.Add(0.3, 0.4, 0.2, 0.6, 0.25, 0.25, 0.25, 0.25)
	f.Add(1.0, 1.0, 1.0, 1.0, 0.9, 0.9, 0.9, 0.9)
	f.Add(0.01, 0.99, 0.5, 0.5, 0.5, 0.5, 0.01, 0.99)
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3, q0, q1, q2, q3 float64) {
		clamp := func(x float64) float64 {
			x = math.Abs(x)
			if !(x > 1e-6) || x > 1e3 || math.IsNaN(x) {
				return 0.5
			}
			return x
		}
		p := geom.Vector{clamp(p0), clamp(p1), clamp(p2), clamp(p3)}
		q := geom.Vector{clamp(q0), clamp(q1), clamp(q2), clamp(q3)}
		sq, sp := q.Sum(), p.Sum()
		const thresh = 1 + eps
		margin := sq - thresh - subjGuard
		v := decideRow(p, q, sq, sp, margin, thresh)
		if v4 := decide4(p, q[0], q[1], q[2], q[3], sq, sp, margin, thresh); v4 != v {
			t.Fatalf("decideRow=%d decide4=%d: p=%v q=%v", v, v4, p, q)
		}
		want := subjugates(p, q)
		if (v == 1 && !want) || (v == -1 && want) {
			t.Fatalf("decideRow=%d subjugates=%v: p=%v q=%v", v, want, p, q)
		}
	})
}

// TestCheckerMatchesPass: a Checker asked about skyline points one at
// a time, in shuffled order, gives the verdict the pass gives, on both
// sides of kernelMinSky; and its Cert after those asks is the fresh
// pass's certificate, witness for witness.
func TestCheckerMatchesPass(t *testing.T) {
	for _, g := range kernelGens {
		for _, n := range []int{30, 800} {
			for d := 2; d <= 5; d++ {
				pts, err := g.fn(n, d, int64(7*d+n))
				if err != nil {
					t.Fatal(err)
				}
				sky := bruteSkyline(pts)
				want := ComputeAmongSkylineCertParallel(pts, sky, 1)
				c := NewChecker(geom.Flatten(pts), sky)
				rng := rand.New(rand.NewSource(int64(d)))
				for _, i := range rng.Perm(len(sky))[:len(sky)/2] {
					if got := c.Happy(i); got != (want.Wit[i] == -1) {
						t.Fatalf("%s n=%d d=%d: Happy(%d) = %v, the pass says witness %d", g.name, n, d, i, got, want.Wit[i])
					}
				}
				got, err := c.Cert(context.Background(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Wit, want.Wit) {
					t.Fatalf("%s n=%d d=%d: the Checker's certificate differs from the pass's", g.name, n, d)
				}
			}
		}
	}
}
