package analysis

import (
	"go/ast"
)

// SleepCtx flags bare time.Sleep calls lexically inside a for or
// range loop. A sleeping loop is almost always a retry/backoff or
// polling loop, and a bare Sleep cannot be interrupted: it holds its
// goroutine (and, in the serving path, a run slot) for the full
// duration after the caller's context has already expired. The
// sanctioned shape is a context-aware wait —
//
//	t := time.NewTimer(d)
//	defer t.Stop()
//	select {
//	case <-t.C:
//	case <-ctx.Done():
//		return ctx.Err()
//	}
//
// — which wakes up the moment the request is dead. The rule is
// lexical: a Sleep inside a func literal that is itself inside a loop
// is still flagged (the literal usually runs on the loop's iteration
// path), and a one-shot Sleep outside any loop is left alone.
// Deliberate uninterruptible stalls (e.g. fault injection) carry a
// //kregret:allow sleepctx directive with a justification.
var SleepCtx = &Analyzer{
	Name: "sleepctx",
	Doc:  "flag bare time.Sleep inside loops; waits in retry/poll loops must select on ctx.Done()",
	Run:  runSleepCtx,
}

func runSleepCtx(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		var stack []ast.Node
		depth := 0
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				switch top.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					depth--
				}
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				depth++
			case *ast.CallExpr:
				if depth > 0 && isPkgFunc(pass.Pkg.Info, n, "time", "Sleep") {
					pass.Reportf(n.Pos(), "time.Sleep in a loop cannot be canceled; use a time.Timer and select on ctx.Done()")
				}
			}
			return true
		})
	}
}
