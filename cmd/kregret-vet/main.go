// Command kregret-vet runs this repository's domain-specific static
// analyzers (internal/analysis) over the module. The suite covers the
// hazard classes that break the floating-point geometry invariants of
// Peng & Wong (ICDE 2014) and the concurrency contracts of the
// serving layers built on top of them:
//
//   - floatcmp:    raw ==/!= on floats outside the epsilon helpers
//   - slicealias:  caller slices stored or returned without copying,
//     and writes through PointMatrix.Row views
//   - naninf:      unguarded math.Sqrt/Log/... calls and divisions
//   - errdrop:     silently discarded error returns
//   - ctxflow:     context must flow caller → callee, never minted
//     mid-stack or stored in struct fields
//   - nopool:      no sync.Pool in production code; a reusable
//     buffer has one owner
//   - atomicguard: atomic fields never plain-accessed, mu-guarded
//     fields only touched under the lock
//   - wireguard:   wire structs (gob or appendWire) registered in a wireManifest
//     pinning version and field layout
//   - sleepctx:    bare time.Sleep inside loops — retry/backoff and
//     polling waits must select on ctx.Done()
//
// Usage:
//
//	go run ./cmd/kregret-vet ./...
//	go run ./cmd/kregret-vet ./internal/... ./cmd/kregret-vet
//	go run ./cmd/kregret-vet -run floatcmp,errdrop ./...
//	go run ./cmd/kregret-vet -tags kregretdebug ./...
//	go run ./cmd/kregret-vet -list
//
// Package patterns are resolved against the module root (the -root
// directory): "./..." selects every package, "./x/..." a subtree,
// "./x" (or ".") a single package. A pattern that selects no packages
// is an error — a typo'd path must not report a silently-clean run.
// With no patterns the whole module is analyzed. Findings are printed
// as file:line:col: [analyzer] message and the exit status is 1 when
// any finding is reported, 2 on load failure or an empty pattern
// match, 0 when clean — so the command slots directly into CI.
//
// Intentional, reviewed exceptions are suppressed in source with a
// justification directive on or directly above the offending line:
//
//	n := math.Sqrt(s) //kregret:allow naninf: s is a sum of squares
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		root     = flag.String("root", ".", "module root directory to analyze")
		run      = flag.String("run", "", "comma-separated analyzers to run (default: all)")
		tags     = flag.String("tags", "", "comma-separated build tags to apply")
		list     = flag.Bool("list", false, "list analyzers and exit")
		verbose  = flag.Bool("v", false, "print per-package progress")
		exitCode = 0
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		var err error
		analyzers, err = analysis.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var buildTags []string
	if *tags != "" {
		buildTags = strings.Split(*tags, ",")
	}

	pkgs, err := analysis.LoadModule(*root, buildTags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kregret-vet: %v\n", err)
		os.Exit(2)
	}
	if patterns := flag.Args(); len(patterns) > 0 {
		modPath, err := analysis.ModulePath(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kregret-vet: %v\n", err)
			os.Exit(2)
		}
		pkgs = selectPackages(pkgs, modPath, patterns)
		if len(pkgs) == 0 {
			fmt.Fprintf(os.Stderr, "kregret-vet: no packages match %s\n", strings.Join(patterns, " "))
			os.Exit(2)
		}
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintf(os.Stderr, "kregret-vet: loaded %s (%d files)\n", p.Path, len(p.Files))
		}
	}

	findings := analysis.Run(pkgs, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kregret-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		exitCode = 1
	}
	os.Exit(exitCode)
}

// selectPackages filters the loaded module to the packages matched by
// any of the go-style patterns, resolved against the module root.
func selectPackages(pkgs []*analysis.Package, modPath string, patterns []string) []*analysis.Package {
	var out []*analysis.Package
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matchPattern(modPath, pat, p.Path) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// matchPattern resolves one pattern against a package import path.
// "./x" forms are relative to the module root; bare forms ("repro/x",
// "x/...") are matched as import paths for familiarity.
func matchPattern(modPath, pattern, pkgPath string) bool {
	pattern = strings.TrimSuffix(pattern, "/")
	switch pattern {
	case ".", "./":
		return pkgPath == modPath
	case "./...", "...", "all":
		return true
	}
	full := pattern
	if rest, ok := strings.CutPrefix(pattern, "./"); ok {
		full = modPath + "/" + rest
	}
	if prefix, ok := strings.CutSuffix(full, "/..."); ok {
		return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
	}
	return pkgPath == full
}
