package deptree

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowlist names every exported function under internal/ that no
// production file references, each with the reason it stays.
const testOnlyAllowlist = "testdata/test_only_exports.txt"

// TestExportsHaveProductionCallers lists every exported top-level
// function (methods excluded) declared under internal/ that no non-test
// Go file references: only _test.go files call it, or nothing does.
// Production is every other Go file of the tree, so cmd/, examples/,
// servebench/ and deptree.go count. The list must equal the allowlist: an
// unlisted entry is a second path or dead code that landed without a
// reason, and a listed entry that gained a production caller or no
// longer exists is stale.
func TestExportsHaveProductionCallers(t *testing.T) {
	got, total := testOnlyExports(t)
	listed := readAllowlist(t)
	for _, name := range got {
		if !listed[name] {
			t.Errorf("%s: exported, but only tests reference it; delete it, move it into a _test.go file, or list it with a reason in %s", name, testOnlyAllowlist)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s: stale entry in %s (it has a production caller or no longer exists)", name, testOnlyAllowlist)
	}
	t.Logf("%d of %d exported functions under internal/ have no production reference", len(got), total)
}

// readAllowlist parses "<dir>.<Func> <reason>" lines; blank lines and
// lines starting with '#' are skipped.
func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(testOnlyAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", testOnlyAllowlist, line, name)
		}
		if out[name] {
			t.Errorf("%s:%d: %s listed twice", testOnlyAllowlist, line, name)
		}
		out[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// testOnlyExports returns, sorted, the "<dir>.<Func>" names of the
// exported top-level functions under internal/ without a production
// reference, and the number of exported top-level functions there.
func testOnlyExports(t *testing.T) ([]string, int) {
	t.Helper()
	type file struct {
		dir  string // slash-separated, relative to the module root
		test bool
		ast  *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported top-level functions under internal/, by "<dir>.<Func>".
	declared := map[string]bool{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[f.dir+"."+fn.Name.Name] = true
			}
		}
	}

	// Names referenced from production files. A function's references to
	// itself do not count.
	used := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local package name -> dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "deptree/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		for _, d := range f.ast.Decls {
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				self = f.dir + "." + fn.Name.Name
			}
			use := func(name string) {
				if name != self && declared[name] {
					used[name] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The declared name is not a reference.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							use(dir + "." + n.Sel.Name)
							return false
						}
					}
					// x.Sel with x not a package: Sel is a field or method.
					ast.Inspect(n.X, visit)
					return false
				case *ast.KeyValueExpr:
					// Function values are not comparable, so a key is
					// never a function reference.
					ast.Inspect(n.Value, visit)
					return false
				case *ast.Ident:
					use(f.dir + "." + n.Name)
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}

	var out []string
	for name := range declared {
		if !used[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, len(declared)
}
