package lint

import (
	"os"
	"path/filepath"
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
