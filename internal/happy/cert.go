package happy

import (
	"context"
	"fmt"
	"sort"

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

// ComputeAmongSkylineCertParallel computes the witness certificate for
// the candidates sky against adversaries sky, via the blocked kernel
// when the set is large enough to amortize the sweep build and the
// scalar scan otherwise. The caller is responsible for sky being the
// true skyline of pts (ascending) and pts being validated. The
// candidate loop fans out over `workers` goroutines (0 means
// GOMAXPROCS, 1 the sequential path); the certificate is
// identical for every width, because each candidate's witness depends
// only on the one read-only sweep all workers share. The happy set is
// the certificate's HappyPoints.
func ComputeAmongSkylineCertParallel(pts []geom.Vector, sky []int, workers int) *Cert {
	c, err := ComputeAmongSkylineCertParallelCtx(context.Background(), pts, sky, workers)
	if err != nil {
		// Unreachable: the background context is never canceled.
		return &Cert{Sky: sky, Wit: witnessesScalar(pts, sky)}
	}
	return c
}

// ComputeAmongSkylineCertParallelCtx is ComputeAmongSkylineCertParallel
// with cooperative cancellation, checked between work units and every
// 1,024 candidates. The returned error wraps ctx.Err() when canceled;
// the certificate is identical to the sequential one whenever the
// error is nil.
func ComputeAmongSkylineCertParallelCtx(ctx context.Context, pts []geom.Vector, sky []int, workers int) (*Cert, error) {
	if len(sky) == 0 {
		return &Cert{Sky: sky}, nil
	}
	if len(sky) < kernelMinSky {
		return &Cert{Sky: sky, Wit: witnessesScalar(pts, sky)}, nil
	}
	s := newSubjSweep(pts, sky)
	wit := make([]int32, len(sky))
	err := parallel.For(ctx, len(sky), workers, certGrain, func(start, end int) error {
		for i := start; i < end; i++ {
			if i%1024 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			wit[i] = s.firstSubjugator(int(s.pos[i]))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("happy: canceled during happy-point preprocessing: %w", err)
	}
	return &Cert{Sky: sky, Wit: wit}, nil
}
