package cfddisc

import (
	"strings"
	"testing"

	"deptree/internal/relation"
)

// FuzzParseTableau throws arbitrary tableau specs at the pattern-tableau
// parser: it must return a structured error or a non-empty CFD list with
// round-trippable renderings — and never panic. The seed corpus covers
// every grammar error the parser documents (missing ':', missing '->',
// unknown attribute, wrong cell count, zero rows, unparsable literal)
// plus binary junk.
func FuzzParseTableau(f *testing.F) {
	f.Add("name,region->price: _,Boston->299; West Wood,_->499")
	f.Add("name->price: _->299")
	f.Add("name,region->price")              // missing ':'
	f.Add("name,region price: _,Boston 299") // header missing '->'
	f.Add("nope->price: _->299")             // unknown attribute
	f.Add("name,region->price: _->299")      // wrong cell count
	f.Add("name->price:")                    // zero rows
	f.Add("name->price: ;;; ")               // only empty rows
	f.Add("name->price: _->notanumber")      // unparsable int literal
	f.Add("region->name: Boston->_,_")       // extra cells
	f.Add("name , region -> price : _ , _ -> _")
	f.Add(":")
	f.Add("")
	f.Add("\x00\xff->\xfe: _->_")
	f.Add(strings.Repeat("a,", 100) + "b->c: _->_")

	schema := relation.NewSchema(
		relation.Attribute{Name: "name", Kind: relation.KindString},
		relation.Attribute{Name: "region", Kind: relation.KindString},
		relation.Attribute{Name: "price", Kind: relation.KindInt},
	)

	f.Fuzz(func(t *testing.T, spec string) {
		cfds, err := ParseTableau(schema, spec) // a panic here fails the fuzz run
		if err != nil {
			if cfds != nil {
				t.Fatalf("error %v alongside non-nil result", err)
			}
			return
		}
		if len(cfds) == 0 {
			t.Fatalf("nil error with empty tableau for spec %q", spec)
		}
		for _, c := range cfds {
			if c.String() == "" {
				t.Fatalf("parsed CFD renders empty for spec %q", spec)
			}
		}
	})
}
