package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// allowedImports is every package of the repo the benchmark may import.
// server, cluster, obsv, bench and streaming are the packages the roadmap
// will reshape; the benchmark must not need editing when they change, so it
// meets them only as the graphd and graphctl binaries.
var allowedImports = map[string]bool{
	"repro/internal/gen":          true,
	"repro/internal/graph":        true,
	"repro/internal/kernels":      true,
	"repro/internal/matrix":       true,
	"repro/internal/par":          true,
	"repro/internal/dyngraph":     true,
	"repro/internal/incr":         true,
	"repro/internal/wire":         true,
	"repro/internal/wire/snapfmt": true,
}

// allowedFlags is every flag the benchmark may pass to graphd or graphctl;
// everything else stays at its shipped default.
var allowedFlags = map[string]bool{
	"-listen": true, "-listen-wire": true, "-vertices": true, "-snapshot": true,
	"-snapshot-interval": true, "-shard-index": true, "-shard-count": true, "-shards": true,
}

func parseDir(t *testing.T) map[string]*ast.File {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = f
	}
	return files
}

func TestImportsStayInsideTheAllowList(t *testing.T) {
	for path, f := range parseDir(t) {
		for _, imp := range f.Imports {
			name, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(name, "repro/") && !allowedImports[name] {
				t.Errorf("%s imports %s, which is outside the benchmark's allow-list", path, name)
			}
		}
	}
}

func TestChildFlagsStayInsideTheAllowList(t *testing.T) {
	f := parseDir(t)["procs.go"]
	if f == nil {
		t.Fatal("procs.go not found")
	}
	checked := 0
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || (fn.Name.Name != "startGraphd" && fn.Name.Name != "startGraphctl") {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(s, "-") {
				return true
			}
			checked++
			if !allowedFlags[s] {
				t.Errorf("%s passes %s, which is outside the allowed flags", fn.Name.Name, s)
			}
			return true
		})
	}
	if checked < 6 {
		t.Fatalf("found only %d flags in startGraphd and startGraphctl; the test no longer sees the launch code", checked)
	}
	// exec.Command appears once, in sandbox.start, which those two feed.
	for path, file := range parseDir(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "Command" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "exec" && path != "procs.go" {
					t.Errorf("%s starts a process outside procs.go", path)
				}
			}
			return true
		})
	}
}

func TestOwnModule(t *testing.T) {
	raw, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "module repro/benchmark") || !strings.Contains(string(raw), "replace repro => ../") {
		t.Errorf("go.mod must declare module repro/benchmark and replace repro => ../, got:\n%s", raw)
	}
}
