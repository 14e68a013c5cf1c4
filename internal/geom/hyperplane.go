package geom

import "fmt"

// Hyperplane is the set {x : Normal·x = Offset}. For the hulls in
// this library normals are non-negative and offsets are positive for
// every facet that does not pass through the origin (the only facets
// the paper's Lemma 1 cares about).
type Hyperplane struct {
	Normal Vector
	Offset float64
}

// String renders the hyperplane as "n·x = c".
func (h Hyperplane) String() string {
	return fmt.Sprintf("%v·x = %g", h.Normal, h.Offset)
}
