package analysis

import "go/types"

// NoPool reports every use of the sync.Pool type. A pooled value
// passes between owners, and what makes that safe (every Get matched
// by a Put on every path, no use after Put, no view of shared memory
// handed to the pool) is a discipline the compiler does not check.
// The tree keeps its reusable buffers with one owner instead: an
// lp.Solver keeps its tableau across its own solves, and each
// goroutine holds its own Solver. A pool that comes back needs an
// analyzer that checks its discipline to come back with it.
var NoPool = &Analyzer{
	Name: "nopool",
	Doc:  "flag any use of sync.Pool; keep reusable buffers with one owner",
	Run:  runNoPool,
}

func runNoPool(pass *Pass) {
	for id, obj := range pass.Pkg.Info.Uses {
		tn, ok := obj.(*types.TypeName)
		if ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
			pass.Reportf(id.Pos(), "sync.Pool shares values between owners; keep the buffer with one owner, as lp.Solver keeps its tableau")
		}
	}
}
