// Package archtest enforces the hexagonal layering rules of the
// repository with AST-level checks, so a violating import fails CI
// rather than surviving as an unnoticed architecture leak:
//
//   - pkg/ and plugins/ must not import internal/ — the public
//     contracts and the plugins written against them must stand alone.
//     There are no exceptions.
//   - internal/ must not import plugins/ — implementations depend on
//     the plugin contract, never on concrete plugin packages. (Test
//     files are exempt: test binaries are composition roots and may
//     register the default plugins.)
//   - no non-test Go file outside e2ebench/ carries a "Deprecated:" doc
//     comment — a replaced API is deleted, not kept as a second way in.
//   - the reference evaluator internal/queryref is imported only by
//     _test.go files, and imports neither internal/index (which holds
//     the filter table) nor internal/serve — an oracle that shares code
//     with what it checks checks nothing.
//   - no non-test Go file calls net/http's TimeoutHandler — it starts a
//     goroutine and buffers the whole body for every request it wraps;
//     serve enforces request deadlines in its own response recorder.
//
// The exported surface of pkg/ is additionally pinned by a golden
// snapshot (see apisnapshot_test.go).
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// module is the module path imports are matched against.
const module = "repro"

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// sourceFiles returns the non-test .go files under root/dir, as paths
// relative to root (slash-separated).
func sourceFiles(t *testing.T, root, dir string) []string {
	t.Helper()
	var files []string
	dirPath := filepath.Join(root, dir)
	err := filepath.WalkDir(dirPath, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip what the go tool ignores: testdata, and directories
			// starting with "." or "_" (build outputs, caches).
			if name := d.Name(); path != dirPath && (name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func imports(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []string
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
	}
	return out
}

// TestPkgAndPluginsDoNotImportInternal is the outward-facing guard:
// the public contracts (pkg/) and the plugins written against them
// must not reach into internal/. pkg/ additionally must not import
// plugins/ — contracts never depend on implementations.
func TestPkgAndPluginsDoNotImportInternal(t *testing.T) {
	root := repoRoot(t)
	for _, dir := range []string{"pkg", "plugins"} {
		for _, rel := range sourceFiles(t, root, dir) {
			for _, imp := range imports(t, filepath.Join(root, rel)) {
				if imp == module+"/internal" || strings.HasPrefix(imp, module+"/internal/") {
					t.Errorf("%s imports %s: %s/ must not import internal/", rel, imp, dir)
				}
				if dir == "pkg" && (imp == module+"/plugins" || strings.HasPrefix(imp, module+"/plugins/")) {
					t.Errorf("%s imports %s: pkg/ must not import plugins/", rel, imp)
				}
			}
		}
	}
}

// TestInternalDoesNotImportPlugins is the inward-facing guard:
// implementations consume plugins only through the pkg/pluginapi
// registry, never by importing a concrete plugin package. Composition
// roots (the root package, cmd/, examples/ and test binaries) are the
// only places that wire plugins in.
func TestInternalDoesNotImportPlugins(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range sourceFiles(t, root, "internal") {
		for _, imp := range imports(t, filepath.Join(root, rel)) {
			if imp == module+"/plugins" || strings.HasPrefix(imp, module+"/plugins/") {
				t.Errorf("%s imports %s: internal/ must not import plugins/", rel, imp)
			}
		}
	}
}

// TestNoDeprecatedAPIs keeps one way in per concern: a replaced API is
// deleted together with its callers rather than left behind a
// "Deprecated:" marker. The e2ebench/ module is a separate benchmark
// harness and is not scanned.
func TestNoDeprecatedAPIs(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range sourceFiles(t, root, ".") {
		if strings.HasPrefix(rel, "e2ebench/") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "Deprecated:") {
					t.Errorf("%s: %q: delete the replaced API instead of deprecating it", rel, c.Text)
				}
			}
		}
	}
}

// TestQueryrefStaysIndependent keeps the test oracle out of production
// and out of the code it checks: no non-test file imports
// internal/queryref, and queryref imports neither the filter table and
// index (internal/index) nor the server (internal/serve).
func TestQueryrefStaysIndependent(t *testing.T) {
	root := repoRoot(t)
	const oracle = module + "/internal/queryref"
	for _, rel := range sourceFiles(t, root, ".") {
		for _, imp := range imports(t, filepath.Join(root, rel)) {
			if imp == oracle {
				t.Errorf("%s imports %s: the reference evaluator is for tests only", rel, imp)
			}
			if strings.HasPrefix(rel, "internal/queryref/") &&
				(imp == module+"/internal/index" || imp == module+"/internal/serve") {
				t.Errorf("%s imports %s: the reference evaluator must not share code with what it checks", rel, imp)
			}
		}
	}
}

// TestNoTimeoutHandler keeps the per-request goroutine out of the serve
// path: no non-test file refers to net/http's TimeoutHandler, under
// whatever name the file imports net/http.
func TestNoTimeoutHandler(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range sourceFiles(t, root, ".") {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		httpName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value != `"net/http"` {
				continue
			}
			httpName = "http"
			if imp.Name != nil {
				httpName = imp.Name.Name
			}
		}
		if httpName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "TimeoutHandler" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == httpName {
				t.Errorf("%s: uses http.TimeoutHandler: it starts a goroutine per request; enforce the deadline in serve's recorder", rel)
			}
			return true
		})
	}
}
