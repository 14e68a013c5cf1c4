package skyline

import (
	"context"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// ComputeParallel computes the skyline with the blocked kernel,
// striping the points across `workers` goroutines (0 means the
// process default) and merging with one more kernel pass over the
// union of stripe skylines. Output is identical to Of on every input
// — the kernel is exact and order-independent, so the stripe
// decomposition changes only wall-clock.
func ComputeParallel(pts []geom.Vector, workers int) ([]int, error) {
	return ComputeParallelCtx(context.Background(), pts, workers)
}

// ComputeParallelCtx is ComputeParallel with the caller's context
// plumbed into the stripe fan-out. Each stripe is pure compute, so
// cancellation is observed at stripe granularity; the result is
// identical to the sequential skyline whenever it returns nil error.
func ComputeParallelCtx(ctx context.Context, pts []geom.Vector, workers int) ([]int, error) {
	if err := validate(pts); err != nil {
		return nil, err
	}
	return computeParallelKernel(ctx, pts, parallel.Resolve(workers))
}
