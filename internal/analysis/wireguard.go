package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// WireGuard protects the gob wire formats behind Index.Save and
// StoredList.Save: every named struct a package gob-encodes or
// gob-decodes must be registered in a package manifest that pins its
// version and field layout on one line:
//
//	var wireManifest = map[string]string{
//	    "indexWire": "v2 Version int; Checksum uint64; N int; Dim int; Cand []int; Ext []int",
//	}
//
// Hand-rolled binary formats opt in through the appendWire
// convention: a method named appendWire on a package-local struct
// (e.g. internal/wal's Record) marks it as a wire type with the same
// manifest obligation — its layout is a durability promise exactly
// like a gob stream's.
//
// The analyzer cross-checks three things:
//
//   - every wire struct type (gob-encoded, gob-decoded, or carrying
//     an appendWire method) has a manifest entry;
//   - the entry's field list matches the struct's current fields
//     (name and type, in declaration order) — adding, removing or
//     retyping a field without touching the manifest is a finding,
//     and touching the manifest puts the version bump on the same
//     reviewed line;
//   - the entry's "v<N>" prefix equals the version constant the
//     package assigns to the struct's Version field, so the manifest
//     can never drift from what Save actually writes.
//
// Stale manifest entries (naming no encoded struct) are findings too:
// a renamed wire struct must retire its old line explicitly.
var WireGuard = &Analyzer{
	Name: "wireguard",
	Doc:  "wire structs (gob or appendWire) registered in wireManifest with matching fields and version pin",
	Run:  runWireGuard,
}

const wireManifestName = "wireManifest"

func runWireGuard(pass *Pass) {
	info := pass.Pkg.Info

	// Every named struct of this package that flows through a gob
	// Encoder.Encode / Decoder.Decode call, with the first site for
	// reporting.
	wire := map[*types.TypeName]token.Pos{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if !isGobCodecCall(info, call) {
				return true
			}
			tn := localStructName(pass, info.Types[call.Args[0]].Type)
			if tn == nil {
				return true
			}
			if _, seen := wire[tn]; !seen {
				wire[tn] = call.Args[0].Pos()
			}
			return true
		})
	}
	// Plus every local struct carrying an appendWire method — the
	// convention marking a hand-rolled binary wire format (the WAL
	// record frame) with the same compat promise as a gob stream.
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "appendWire" || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			tn := localStructName(pass, info.TypeOf(fd.Recv.List[0].Type))
			if tn == nil {
				continue
			}
			if _, seen := wire[tn]; !seen {
				wire[tn] = fd.Name.Pos()
			}
		}
	}
	if len(wire) == 0 {
		return
	}

	manifest, entryPos := findWireManifest(pass)
	if manifest == nil {
		for tn, pos := range wire {
			pass.Reportf(pos, "wire struct %s has no %s: declare one pinning its version and field layout", tn.Name(), wireManifestName)
		}
		return
	}

	seen := map[string]bool{}
	for tn, pos := range wire {
		seen[tn.Name()] = true
		entry, ok := manifest[tn.Name()]
		if !ok {
			pass.Reportf(pos, "wire struct %s is not registered in %s", tn.Name(), wireManifestName)
			continue
		}
		version, fields, ok := splitWireEntry(entry)
		if !ok {
			pass.Reportf(entryPos[tn.Name()], "%s entry for %s must read \"v<N> <field list>\", got %q", wireManifestName, tn.Name(), entry)
			continue
		}
		actual := wireFieldSig(pass, tn)
		if fields != actual {
			pass.Reportf(entryPos[tn.Name()], "wire struct %s changed: manifest records %q, the struct has %q — update the entry and bump its version", tn.Name(), fields, actual)
		}
		if pinned, ok := versionPin(pass, tn); ok && pinned != version {
			pass.Reportf(entryPos[tn.Name()], "%s records v%d for %s but its Version field is pinned to %d", wireManifestName, version, tn.Name(), pinned)
		}
	}
	for name, pos := range entryPos {
		if !seen[name] {
			pass.Reportf(pos, "%s entry %q matches no wire struct in this package", wireManifestName, name)
		}
	}
}

// isGobCodecCall matches (*gob.Encoder).Encode and
// (*gob.Decoder).Decode calls.
func isGobCodecCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Encode" && sel.Sel.Name != "Decode") {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/gob" {
		return false
	}
	return true
}

// localStructName resolves t (through pointers) to the type name of a
// struct declared in the package under analysis.
func localStructName(pass *Pass, t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	obj := n.Obj()
	if obj.Pkg() != pass.Pkg.Types {
		return nil
	}
	return obj
}

// findWireManifest locates the package-level wireManifest map literal
// and parses its string-to-string entries.
func findWireManifest(pass *Pass) (entries map[string]string, entryPos map[string]token.Pos) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != wireManifestName || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					entries = map[string]string{}
					entryPos = map[string]token.Pos{}
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						k, okK := stringLit(kv.Key)
						v, okV := stringLit(kv.Value)
						if okK && okV {
							entries[k] = v
							entryPos[k] = kv.Pos()
						}
					}
					return entries, entryPos
				}
			}
		}
	}
	return nil, nil
}

func stringLit(e ast.Expr) (string, bool) {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// splitWireEntry parses "v2 Version int; Cand []int" into (2,
// "Version int; Cand []int").
func splitWireEntry(entry string) (version int, fields string, ok bool) {
	head, rest, found := strings.Cut(entry, " ")
	if !found || !strings.HasPrefix(head, "v") {
		return 0, "", false
	}
	n, err := strconv.Atoi(head[1:])
	if err != nil {
		return 0, "", false
	}
	return n, rest, true
}

// wireFieldSig renders the struct's exported wire layout as
// "Name Type; ..." in declaration order, with package-local type
// names unqualified (gob only transmits exported fields, but
// unexported fields would silently vanish from the stream, so they
// are listed too and the mismatch surfaces in review).
func wireFieldSig(pass *Pass, tn *types.TypeName) string {
	st := tn.Type().Underlying().(*types.Struct)
	qual := func(p *types.Package) string {
		if p == pass.Pkg.Types {
			return ""
		}
		return p.Name()
	}
	parts := make([]string, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		parts = append(parts, fmt.Sprintf("%s %s", f.Name(), types.TypeString(f.Type(), qual)))
	}
	return strings.Join(parts, "; ")
}

// versionPin finds the integer constant the package assigns to the
// struct's Version field in a composite literal (Save's
// `indexWire{Version: indexVersion, ...}`) — the value the wire
// actually carries.
func versionPin(pass *Pass, tn *types.TypeName) (int, bool) {
	info := pass.Pkg.Info
	pinned, found := 0, false
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || found {
				return !found
			}
			if localStructName(pass, info.Types[cl].Type) != tn {
				return true
			}
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "Version" {
					continue
				}
				tv, ok := info.Types[kv.Value]
				if !ok || tv.Value == nil {
					continue
				}
				if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
					pinned, found = int(v), true
				}
			}
			return true
		})
	}
	return pinned, found
}
