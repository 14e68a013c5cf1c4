// Package nopool seeds uses of sync.Pool (reported by the nopool
// analyzer) beside the single-owner buffer that replaces one, which
// stays silent.
package nopool

import "sync"

var bufPool = sync.Pool{New: func() any { return new([]float64) }} // want: nopool

// pooledSum borrows a buffer that any goroutine may hold next.
func pooledSum(p *sync.Pool, xs []float64) float64 { // want: nopool
	b := p.Get().(*[]float64)
	defer p.Put(b)
	*b = append((*b)[:0], xs...)
	t := 0.0
	for _, x := range *b {
		t += x
	}
	return t
}

// summer owns its buffer: one goroutine at a time calls sum, and each
// call reuses what the last one grew.
type summer struct {
	buf []float64
}

func (s *summer) sum(xs []float64) float64 {
	s.buf = append(s.buf[:0], xs...)
	t := 0.0
	for _, x := range s.buf {
		t += x
	}
	return t
}
