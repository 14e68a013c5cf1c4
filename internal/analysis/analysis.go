// Package analysis is a stdlib-only static-analysis framework with
// domain-specific analyzers for this repository's floating-point
// geometry kernel. It is the engine behind cmd/kregret-vet.
//
// The entire correctness story of the reproduction rests on numeric
// invariants — downward-closed hulls, non-negative facet normals,
// critical ratios in [0,1] — that a single raw `==` on a float64, an
// aliased coordinate slice or a silently dropped error can break
// without any test noticing. The analyzers here encode those hazard
// classes as machine-checked rules:
//
//   - floatcmp:   no ==/!=/switch on floating-point operands outside
//     the epsilon helpers in internal/geom/eps.go
//   - slicealias: the public API must not store or return a
//     caller-provided []float64 (or Point) without copying
//   - naninf:     results of math.Sqrt/Log/Acos/… and float divisions
//     must be guarded against NaN/Inf
//   - errdrop:    no discarded error returns in non-test files
//
// PR 6 added the concurrency and lifecycle invariants the serving
// layers (PRs 2–5) depend on:
//
//   - ctxflow:     context flows caller → callee: no fresh
//     Background/TODO outside package main and compat wrappers, ctx
//     is the first parameter, contexts never live in struct fields
//   - nopool:      no sync.Pool in production code; a reusable buffer
//     has one owner (an lp.Solver keeps its own tableau)
//   - atomicguard: atomic fields are never plain-accessed and
//     mu-guarded fields are only touched under the lock
//   - wireguard:   wire structs (gob or appendWire) are registered in a wireManifest
//     pinning their version and field layout
//
// PR 7 added the self-healing wait discipline:
//
//   - sleepctx:    no bare time.Sleep inside loops — retry/backoff
//     and polling waits must run through a time.Timer selected
//     against ctx.Done() so dead requests release their goroutine
//
// Only go/ast, go/parser, go/types, go/token and go/build are used;
// there is no dependency on golang.org/x/tools.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	Pkg *Package

	analyzer string
	findings []Finding
	allowed  map[string]map[int]bool // filename -> line -> suppressed (for this analyzer)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{FloatCmp, SliceAlias, NaNInf, ErrDrop, CtxFlow, NoPool, AtomicGuard, WireGuard, SleepCtx}
}

// ByName resolves a comma-separated analyzer list ("floatcmp,errdrop").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Reportf records a finding at pos unless a //kregret:allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if lines, ok := p.allowed[position.Filename]; ok {
		// A directive on line L suppresses findings on L (trailing
		// comment) and L+1 (comment on its own line above the code).
		if lines[position.Line] || lines[position.Line-1] {
			return
		}
	}
	p.findings = append(p.findings, Finding{
		Pos:      position,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to every package and returns all findings
// sorted by position. Malformed //kregret:allow directives (unknown
// analyzer names, missing justifications) are findings in their own
// right, reported under the pseudo-analyzer name "allow" — a typo'd
// directive must fail loudly, not silently suppress nothing.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, validateAllows(pkg)...)
		for _, a := range analyzers {
			pass := &Pass{
				Pkg:      pkg,
				analyzer: a.Name,
				allowed:  collectAllows(pkg, a.Name),
			}
			a.Run(pass)
			all = append(all, pass.findings...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// allowPrefix marks an intentional, reviewed exception:
//
//	x := v.Norm() //kregret:allow naninf: sum of squares is non-negative
//
// The directive names one or more comma-separated analyzers and must
// carry a justification after a colon. It applies to its own line and
// the following line. A directive naming an unknown analyzer or
// missing its justification is itself a finding (see validateAllows).
const allowPrefix = "kregret:allow "

// allowNames parses the comma-separated analyzer list of one
// directive comment, or ok=false if the comment is not a directive.
// The justification (everything after the first colon) rides along
// for validation.
func allowNames(text string) (names []string, justification string, ok bool) {
	text = strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*"), "*/")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, "", false
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	list, just, _ := strings.Cut(rest, ":")
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(just), true
}

func collectAllows(pkg *Package, analyzer string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				names, _, ok := allowNames(c.Text)
				if !ok {
					continue
				}
				match := false
				for _, n := range names {
					if n == analyzer {
						match = true
						break
					}
				}
				if !match {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]bool{}
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}

// validateAllows checks every //kregret:allow directive of a package:
// each listed name must be a registered analyzer and the directive
// must justify itself after a colon. Violations come back as findings
// under the pseudo-analyzer "allow" (which is not itself
// allowlistable — a broken directive cannot vouch for itself).
func validateAllows(pkg *Package) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Finding
	report := func(pos token.Position, format string, args ...any) {
		out = append(out, Finding{Pos: pos, Analyzer: "allow", Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				names, justification, ok := allowNames(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if len(names) == 0 {
					report(pos, "//kregret:allow names no analyzer")
				}
				for _, n := range names {
					if !known[n] {
						report(pos, "//kregret:allow names unknown analyzer %q", n)
					}
				}
				if justification == "" {
					report(pos, "//kregret:allow must justify the exception after a colon")
				}
			}
		}
	}
	return out
}

// ---- shared type helpers used by several analyzers ----

// isFloat reports whether t's underlying type is a floating-point
// basic kind (including untyped float).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// isFloatSliceLike reports whether t is (or whose underlying is) a
// []float64, a named float slice like geom.Vector / kregret.Point, or
// a slice of such ([]Point). These are the types whose aliasing
// corrupts datasets.
func isFloatSliceLike(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if isFloat(s.Elem()) {
		return true
	}
	inner, ok := s.Elem().Underlying().(*types.Slice)
	return ok && isFloat(inner.Elem())
}

// calleeObj resolves the called function/method object of a call, or
// nil for indirect calls and conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether the call is pkgPath.name(...) for a
// package-level function.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// isConversion reports whether the call expression is a type
// conversion rather than a function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// rootIdents collects every identifier inside e that resolves to a
// variable (use or definition), keyed by object. Used by guard
// heuristics: `lambda := a/b` followed by `lambda > 0 && lambda < 1`
// must connect the defining and using occurrences of lambda.
func rootIdents(info *types.Info, e ast.Expr, into map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok {
				into[obj] = true
			}
			if obj, ok := info.Defs[id].(*types.Var); ok {
				into[obj] = true
			}
		}
		return true
	})
}
