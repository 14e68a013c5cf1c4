//go:build kregretfault

package core

// Fault-injection builds exist to exercise the parallel worker path —
// SiteParallelWorker fires inside spawned workers, and a sweep that
// runs inline (n < 2·grain) never reaches it. The production grain of
// the evaluator's support scan is sized for six-figure datasets,
// which would force every fault test to build one; shrinking it here
// lets a few hundred points split that scan into multiple chunks.
func init() {
	grainSupport = 256
}
