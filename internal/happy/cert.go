package happy

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// Cert is a witness certificate for the happy-point computation over
// a skyline: Wit[i] is the original index of some point subjugating
// pts[Sky[i]], or -1 when Sky[i] is happy. The certificate is what
// makes delta maintenance exact (see update.go): after a mutation,
// a surviving witness still proves non-happiness without any rescan,
// because subjugation is a pure function of the two points' values.
//
// Sky aliases the slice the certificate was built from; treat a Cert
// as immutable once published (the dsState cache shares certs across
// epochs).
type Cert struct {
	Sky []int
	Wit []int32
}

// HappyPoints returns the happy indices (ascending): the members of
// Sky subjugated by no other member.
func (c *Cert) HappyPoints() []int {
	out := make([]int, 0, len(c.Sky))
	for i, w := range c.Wit {
		if w == -1 {
			out = append(out, c.Sky[i])
		}
	}
	sort.Ints(out)
	return out
}

// certGrain: candidates per parallel work unit. Per-candidate cost is
// skewed (subjugated candidates exit on the first witness), so units
// stay small to balance.
const certGrain = 8

// Checker decides the happy-point pass one skyline point at a time:
// the witness of sky[i] is the first subjugator the banded sweep finds
// (firstSubjugator) or, below kernelMinSky, the first in ascending
// skyline order (the scalar scan). Each decision is memoized, and the
// pass itself is every decision of one Checker (Cert), so a point the
// Checker calls happy is one the pass calls happy. The caller is
// responsible for sky being the true skyline of the rows (ascending)
// and the rows being validated. Safe for concurrent use.
type Checker struct {
	rows  geom.Rows
	sky   []int
	sweep *subjSweep // nil below kernelMinSky
	// memo[i] is 0 while sky[i] is undecided and its witness plus 2
	// once decided.
	memo []atomic.Int32
}

// NewChecker returns the Checker of the skyline sky of the rows r. It
// builds the sweep, one pass over sky; no point is decided yet.
func NewChecker(r geom.Rows, sky []int) *Checker {
	c := &Checker{rows: r, sky: sky, memo: make([]atomic.Int32, len(sky))}
	if len(sky) >= kernelMinSky {
		c.sweep = newSubjSweep(r, sky)
	}
	return c
}

// witness returns the original index of a point subjugating sky[i],
// or -1 when sky[i] is happy.
func (c *Checker) witness(i int) int32 {
	if m := c.memo[i].Load(); m != 0 {
		return m - 2
	}
	var w int32
	if c.sweep != nil {
		w = c.sweep.firstSubjugator(int(c.sweep.pos[i]))
	} else {
		w = scanWitness(c.rows, c.sky, c.sky[i])
	}
	c.memo[i].Store(w + 2)
	return w
}

// Happy reports whether sky[i] is a happy point.
func (c *Checker) Happy(i int) bool { return c.witness(i) == -1 }

// Cert decides every skyline point and returns the certificate. The
// loop fans out over `workers` goroutines (0 means GOMAXPROCS, 1 the
// sequential path; the scalar scan always runs sequentially) and checks
// ctx between work units and every 1,024 candidates. The returned
// error wraps ctx.Err() when canceled; otherwise the certificate is
// the same for every width, because each witness depends only on the
// read-only sweep.
func (c *Checker) Cert(ctx context.Context, workers int) (*Cert, error) {
	if c.sweep == nil {
		workers = 1
	}
	wit := make([]int32, len(c.sky))
	err := parallel.For(ctx, len(c.sky), workers, certGrain, func(start, end int) error {
		for i := start; i < end; i++ {
			if i%1024 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			wit[i] = c.witness(i)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("happy: canceled during happy-point preprocessing: %w", err)
	}
	return &Cert{Sky: c.sky, Wit: wit}, nil
}

// ComputeAmongSkylineCertParallel computes the witness certificate for
// the candidates sky against adversaries sky: the Cert of a fresh
// Checker, so through the blocked kernel when the set is large enough
// to amortize the sweep build and the scalar scan otherwise. The
// caller is responsible for sky being the true skyline of pts
// (ascending) and pts being validated. The happy set is the
// certificate's HappyPoints.
func ComputeAmongSkylineCertParallel(pts []geom.Vector, sky []int, workers int) *Cert {
	c, err := ComputeAmongSkylineCertParallelCtx(context.Background(), pts, sky, workers)
	if err != nil {
		// Unreachable: the background context is never canceled.
		panic(err)
	}
	return c
}

// ComputeAmongSkylineCertParallelCtx is ComputeAmongSkylineCertParallel
// with cooperative cancellation (see Checker.Cert): the Cert of the
// Checker over pts flattened into rows.
func ComputeAmongSkylineCertParallelCtx(ctx context.Context, pts []geom.Vector, sky []int, workers int) (*Cert, error) {
	if len(sky) == 0 {
		return &Cert{Sky: sky}, nil
	}
	return NewChecker(geom.Flatten(pts), sky).Cert(ctx, workers)
}
