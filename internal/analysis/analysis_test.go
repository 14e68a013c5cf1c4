package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture files mark expected findings with trailing comments:
//
//	return a == b // want: floatcmp
//
// Multiple analyzers may be listed comma-separated. Every annotated
// line must produce exactly the listed findings and every unannotated
// line must produce none — so fixtures prove both that each analyzer
// catches its seeded violation and that the clean counterexamples
// (and the //kregret:allow directive) stay silent.
var wantRe = regexp.MustCompile(`// want: ([a-z, ]+)`)

func fixtureWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			for _, name := range strings.Split(m[1], ",") {
				if name = strings.TrimSpace(name); name != "" {
					wants[key] = append(wants[key], name)
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<fixture> under importPath, runs the
// full analyzer suite over it and matches findings line-for-line
// against the // want annotations.
func runFixture(t *testing.T, fixture, importPath, analyzer string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	findings := Run([]*Package{pkg}, All())

	got := map[string][]string{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		got[key] = append(got[key], f.Analyzer)
	}
	want := fixtureWants(t, dir)

	seeded := false
	for _, names := range want {
		for _, n := range names {
			if n == analyzer {
				seeded = true
			}
		}
	}
	if !seeded {
		t.Fatalf("fixture %s seeds no %s violation", fixture, analyzer)
	}

	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	for k := range keys {
		g, w := append([]string(nil), got[k]...), append([]string(nil), want[k]...)
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: got findings [%s], want [%s]", k, strings.Join(g, ","), strings.Join(w, ","))
		}
	}
}

func TestFloatCmpFixture(t *testing.T) {
	runFixture(t, "floatcmp", "floatcmpfix", "floatcmp")
}

func TestSliceAliasFixture(t *testing.T) {
	// The import path must not contain "/internal/": the analyzer
	// exempts internal packages.
	runFixture(t, "slicealias", "slicealiasfix", "slicealias")
}

func TestParallelForFixture(t *testing.T) {
	// The import path deliberately contains "/internal/": the
	// parallel-body check must run before the internal-package
	// exemption of the aliasing check.
	runFixture(t, "parfor", "repro/internal/parforfix", "slicealias")
}

func TestMatRowFixture(t *testing.T) {
	// The import path deliberately contains "/internal/": the Row-view
	// check must run before the internal-package exemption of the
	// aliasing check, because the PointMatrix hot paths are internal.
	runFixture(t, "matrow", "repro/internal/matrowfix", "slicealias")
}

func TestNaNInfFixture(t *testing.T) {
	runFixture(t, "naninf", "naninffix", "naninf")
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, "errdrop", "errdropfix", "errdrop")
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, "ctxflow", "ctxflowfix", "ctxflow")
}

func TestNoPoolFixture(t *testing.T) {
	runFixture(t, "nopool", "nopoolfix", "nopool")
}

func TestAtomicGuardFixture(t *testing.T) {
	runFixture(t, "atomicguard", "atomicguardfix", "atomicguard")
}

func TestWireGuardFixture(t *testing.T) {
	runFixture(t, "wireguard", "wireguardfix", "wireguard")
}

func TestSleepCtxFixture(t *testing.T) {
	runFixture(t, "sleepctx", "sleepctxfix", "sleepctx")
}

// TestAllowFixture covers the //kregret:allow grammar: comma lists,
// trailing vs line-above placement, stacked block directives, and the
// malformed forms reported under the "allow" pseudo-analyzer.
func TestAllowFixture(t *testing.T) {
	runFixture(t, "allowfix", "allowfixfix", "allow")
}

// TestAllowNames pins the directive parser itself: prefix detection,
// comma splitting, block-comment trimming and the justification cut.
func TestAllowNames(t *testing.T) {
	cases := []struct {
		in    string
		names []string
		just  string
		ok    bool
	}{
		{"//kregret:allow floatcmp: reason here", []string{"floatcmp"}, "reason here", true},
		{"//kregret:allow floatcmp, naninf: shared reason", []string{"floatcmp", "naninf"}, "shared reason", true},
		{"//kregret:allow floatcmp,naninf,errdrop: tight list", []string{"floatcmp", "naninf", "errdrop"}, "tight list", true},
		{"/*kregret:allow errdrop: block form*/", []string{"errdrop"}, "block form", true},
		{"//kregret:allow floatcmp", []string{"floatcmp"}, "", true},
		{"//kregret:allow : nameless", nil, "nameless", true},
		{"// an ordinary comment", nil, "", false},
		{"//kregret:allowfloatcmp: missing space", nil, "", false},
	}
	for _, c := range cases {
		names, just, ok := allowNames(c.in)
		if ok != c.ok {
			t.Errorf("allowNames(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if strings.Join(names, "|") != strings.Join(c.names, "|") || just != c.just {
			t.Errorf("allowNames(%q) = (%v, %q), want (%v, %q)", c.in, names, just, c.names, c.just)
		}
	}
}

// TestEveryAnalyzerAllowlistable guards the directive validator
// against drift: a directive naming any registered analyzer must pass
// validation, so adding an analyzer without teaching the allowlist
// about it is impossible (the names share one registry, All()).
func TestEveryAnalyzerAllowlistable(t *testing.T) {
	var b strings.Builder
	b.WriteString("package allowall\n\n")
	for _, a := range All() {
		fmt.Fprintf(&b, "//kregret:allow %s: every registered analyzer must be allowlistable\n", a.Name)
	}
	b.WriteString("\nfunc unused() {}\n")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "allowall.go"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "allowall")
	if err != nil {
		t.Fatalf("loading generated package: %v", err)
	}
	for _, f := range Run([]*Package{pkg}, All()) {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("floatcmp, errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "floatcmp" || as[1].Name != "errdrop" {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestRepositoryIsVetClean runs the full analyzer suite over the
// repository itself: the working tree must stay kregret-vet clean.
// This is the same check `go run ./cmd/kregret-vet ./...` performs.
func TestRepositoryIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, f := range Run(pkgs, All()) {
		t.Errorf("unexpected finding: %s", f)
	}
}
