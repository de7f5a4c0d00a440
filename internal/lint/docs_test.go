package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestServerExportedDocs is the CI gate from the graphd PR: every exported
// identifier in the serving layer (and the substrate packages its contract
// leans on) must carry a doc comment, and each package needs a package
// comment. New exported API without documentation fails CI here.
func TestServerExportedDocs(t *testing.T) {
	dirs := []string{
		filepath.Join("..", "server"),
		filepath.Join("..", "par"),
		filepath.Join("..", "scratch"),
		filepath.Join("..", "dyngraph"),
		filepath.Join("..", "telemetry"),
		filepath.Join("..", "incr"),
		filepath.Join("..", "slo"),
		filepath.Join("..", "prof"),
		filepath.Join("..", "wire"),
		filepath.Join("..", "wire", "snapfmt"),
		filepath.Join("..", "cluster"),
		filepath.Join("..", "reqscratch"),
	}
	findings, err := MissingDocs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f.String())
	}
}

// TestMissingDocsDetects checks the analyzer on synthetic sources: an
// undocumented exported func/type/const/method is flagged, documented and
// unexported ones are not, group docs cover grouped specs, and a missing
// package comment is reported once per package.
func TestMissingDocsDetects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", `package p

// F is documented.
func F() {}

func G() {}

func h() {}

type T struct{}

// M is documented.
func (t *T) M() {}

func (t *T) N() {}

// Grouped consts share the group doc.
const (
	A = 1
	B = 2
)

var V int
`)
	write("a_test.go", "package p\n\nfunc Undocumented() {}\n")

	findings, err := MissingDocs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"G": true, "T": true, "T.N": true, "V": true, "package " + filepath.Base(dir): true,
	}
	if len(findings) != len(want) {
		t.Fatalf("findings = %v, want exactly %v", findings, want)
	}
	for _, f := range findings {
		if !want[f.Name] {
			t.Errorf("unexpected finding %s", f)
		}
	}
}

// TestMissingDocsPackageComment: a package comment on any file in the
// directory satisfies the package-level requirement.
func TestMissingDocsPackageComment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "doc.go"), []byte("// Package p is documented.\npackage p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte("package p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := MissingDocs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

// metricFamily matches a metric family name: server_*, cluster_*, par_*,
// runtime_*, slo_* or prof_*.
var metricFamily = regexp.MustCompile(`\b(?:server|cluster|par|runtime|slo|prof)_[a-z0-9_]*[a-z0-9]\b`)

// citedFamilies returns the metric families docs/OPERATIONS.md cites in
// backticks (labels stripped), each with the span it appears in.
func citedFamilies(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	labels := regexp.MustCompile(`\{[^}]*\}`)
	cited := map[string]string{}
	for _, s := range span.FindAllString(string(doc), -1) {
		for _, name := range metricFamily.FindAllString(labels.ReplaceAllString(s, ""), -1) {
			cited[name] = s
		}
	}
	if len(cited) == 0 {
		t.Fatal("found no metric families in docs/OPERATIONS.md")
	}
	return cited
}

// stringLiterals returns every string literal in the non-test Go under the
// given directories (relative to the repository root, walked recursively),
// each with the file it appears in.
func stringLiterals(t *testing.T, dirs ...string) map[string]string {
	t.Helper()
	literals := map[string]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join("..", "..", dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						literals[s], _ = filepath.Rel(filepath.Join("..", ".."), path)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return literals
}

// TestOperationsMetricFamiliesExist is the docs gate for the runbook:
// every metric family docs/OPERATIONS.md cites in backticks must be
// registered somewhere, which in this code base means it appears as a
// string literal in non-test Go under internal/ or cmd/. A renamed or
// deleted family then fails here instead of leaving the runbook pointing at
// nothing.
func TestOperationsMetricFamiliesExist(t *testing.T) {
	literals := stringLiterals(t, "internal", "cmd")
	for name, s := range citedFamilies(t) {
		if _, ok := literals[name]; !ok {
			t.Errorf("docs/OPERATIONS.md cites %s (in %s), but no non-test Go under internal/ or cmd/ names it", name, s)
		}
	}
}

// TestMetricFamiliesCited is the reverse gate: every server_*, cluster_*,
// slo_* or prof_* family the serving packages register — a string literal
// of that shape in their non-test Go — is cited in backticks by
// docs/OPERATIONS.md, in a symptom, an alert row or the SLO section. A
// family no runbook line reads is deleted, not exported. par_* and
// runtime_* are out of scope: every binary reports them, and graphbench
// -metrics-out and its readers consume them.
func TestMetricFamiliesCited(t *testing.T) {
	family := regexp.MustCompile(`^(?:server|cluster|slo|prof)_[a-z0-9_]*[a-z0-9]$`)
	cited := citedFamilies(t)
	literals := stringLiterals(t, "internal/server", "internal/cluster", "internal/slo", "internal/prof")
	var families []string
	for lit := range literals {
		if family.MatchString(lit) {
			families = append(families, lit)
		}
	}
	if len(families) == 0 {
		t.Fatal("found no metric families in the serving packages")
	}
	slices.Sort(families)
	for _, name := range families {
		if _, ok := cited[name]; !ok {
			t.Errorf("%s registers %s, which docs/OPERATIONS.md never cites: cite it where an operator acts on it, or delete it", literals[name], name)
		}
	}
}
