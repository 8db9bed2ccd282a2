package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deptree/internal/core"
)

// TestRegistryWellFormed pins the enrollment invariants: unique names,
// a class of the family tree (core.Lookup resolves it) and a one-line
// doc per algorithm, and Lookup agreeing with All.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Class == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("registry entry %+v is missing a field", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate registry name %q", a.Name)
		}
		seen[a.Name] = true
		if _, ok := core.Lookup(a.Class); !ok {
			t.Errorf("%s: class %q is not a family-tree acronym", a.Name, a.Class)
		}
		got, ok := Lookup(a.Name)
		if !ok || got.Name != a.Name {
			t.Errorf("Lookup(%q) = %+v, %v", a.Name, got, ok)
		}
	}
	if _, ok := Lookup("no-such-algo"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if len(Names()) != len(All()) {
		t.Errorf("Names() has %d entries, All() has %d", len(Names()), len(All()))
	}
}

// TestReadmeEndpointTable keeps the README's served-endpoint table in
// lockstep with the registry: every registered algorithm must appear as
// a table row with its class and doc line, so the documentation cannot
// silently drift from the set actually served and tested.
func TestReadmeEndpointTable(t *testing.T) {
	readme := ""
	for dir := "."; ; dir = filepath.Join(dir, "..") {
		p := filepath.Join(dir, "README.md")
		if b, err := os.ReadFile(p); err == nil {
			readme = string(b)
			break
		}
		if abs, _ := filepath.Abs(dir); abs == "/" {
			t.Fatal("README.md not found walking up from the package directory")
		}
	}
	for _, a := range All() {
		row := fmt.Sprintf("| `%s` | %s | %s |", a.Name, a.Class, a.Doc)
		if !strings.Contains(readme, row) {
			t.Errorf("README endpoint table is missing the row:\n%s", row)
		}
	}
}
