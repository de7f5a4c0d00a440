// Package lint holds repo-specific static checks that gofmt/vet cannot
// express: exported docs (docs.go), the option rule for command-line flags
// (flags.go), and, here, the flat-accumulator migration guard: hot-path
// packages (internal/kernels, internal/matrix, and the serving
// layers internal/server, internal/cluster and internal/reqscratch) must
// not allocate map-based accumulators — counting and merging go through
// scratch.SPA / scratch.Map64, which reset in O(touched) and reuse their
// backing arrays.
// A plain `make(map[...])` in those packages is almost always a performance
// regression sneaking back in, so it fails CI unless the file is explicitly
// allowlisted (cold-path kernels where a map is the honest data structure).
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Finding is one disallowed map allocation.
type Finding struct {
	File string // path as passed in
	Line int
	Expr string // the offending expression, e.g. "make(map[int64]int32)"
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s (use scratch.SPA/scratch.Map64; or allowlist the file)", f.File, f.Line, f.Expr)
}

// NoMapAccumulators scans every non-test .go file directly inside each dir
// and reports `make(map[...])` calls, skipping files whose "pkgdir/file.go"
// (the directory's last element and the basename) appears in allow. Parse
// errors are reported as errors: a file this check cannot read is a file it
// cannot vouch for.
func NoMapAccumulators(dirs []string, allow map[string]bool) ([]Finding, error) {
	var findings []Finding
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if allow[filepath.Base(dir)+"/"+name] {
				continue
			}
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun, ok := call.Fun.(*ast.Ident)
				if !ok || fun.Name != "make" || len(call.Args) == 0 {
					return true
				}
				if _, isMap := call.Args[0].(*ast.MapType); !isMap {
					return true
				}
				pos := fset.Position(call.Pos())
				findings = append(findings, Finding{
					File: path,
					Line: pos.Line,
					Expr: renderCall(fset, call),
				})
				return true
			})
		}
	}
	return findings, nil
}

// renderCall reproduces the source text of the make call from its positions.
func renderCall(fset *token.FileSet, call *ast.CallExpr) string {
	start := fset.Position(call.Pos())
	end := fset.Position(call.End())
	src, err := os.ReadFile(start.Filename)
	if err != nil || start.Offset >= len(src) || end.Offset > len(src) {
		return "make(map[...])"
	}
	return string(src[start.Offset:end.Offset])
}
