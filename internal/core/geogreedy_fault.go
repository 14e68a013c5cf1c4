//go:build kregretfault

package core

// Fault-injection builds exist to exercise the parallel worker path —
// SiteParallelWorker fires inside spawned workers, and a sweep that
// runs inline (n < 2·grain) never reaches it. The production grains
// of the relocation pass and the evaluator's support scan are sized
// for six-figure datasets, which would force every fault test to
// build one; shrinking them here lets a few hundred points split
// those passes into multiple chunks.
func init() {
	grainSupport = 256
	grainRelocate = 256
}
