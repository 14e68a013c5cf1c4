package core

import "sync"

// floatScratchPool recycles the per-iteration float buffers of the
// hot paths (Greedy's per-candidate LP optima, the sampled regret
// vectors). With intra-query parallelism these buffers are filled
// concurrently and folded sequentially every greedy iteration, so
// allocating them fresh each time would put the allocator on the
// critical path.
var floatScratchPool sync.Pool

// floatScratch returns a length-n float slice with unspecified
// contents; the caller must write every entry it later reads. Pair
// with putFloatScratch.
func floatScratch(n int) []float64 {
	if v := floatScratchPool.Get(); v != nil {
		if s := *(v.(*[]float64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// putFloatScratch returns a scratch slice to the pool.
func putFloatScratch(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	floatScratchPool.Put(&s)
}

// intScratchPool recycles GeoGreedy's int buffers: the vertex-ID side
// channel of its batched assignment scan, its active candidate list
// and its per-vertex list heads.
var intScratchPool sync.Pool

// intScratch returns a length-n int slice with unspecified contents;
// the caller must write every entry it later reads. Pair with
// putIntScratch.
func intScratch(n int) []int {
	if v := intScratchPool.Get(); v != nil {
		if s := *(v.(*[]int)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int, n)
}

// putIntScratch returns a scratch slice to the pool.
func putIntScratch(s []int) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	intScratchPool.Put(&s)
}

// candStatePool recycles GeoGreedy's per-query candidate-state array —
// 24 bytes per candidate, the second-largest per-query allocation at
// paper scale after the flattened point matrix.
var candStatePool sync.Pool

// candStateScratch returns a length-n zeroed candState slice. Pair
// with putCandStateScratch.
func candStateScratch(n int) []candState {
	if v := candStatePool.Get(); v != nil {
		if s := *(v.(*[]candState)); cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = candState{}
			}
			return s
		}
	}
	return make([]candState, n)
}

// putCandStateScratch returns a scratch slice to the pool.
func putCandStateScratch(s []candState) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	candStatePool.Put(&s)
}
