// Fuzz harness for the CSV codec: any CSV that parses must survive a
// parse → render → parse round trip with the second render byte-identical
// to the first. The corpus is seeded with the paper's Table 1 hotel
// relation (the running example every pipeline starts from) plus edge
// cases: quoting, embedded separators, null cells, and numeric columns.
package relation_test

import (
	"bytes"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// renderCSV encodes r, failing the test on error.
func renderCSV(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.String()
}

func FuzzCSVRoundTrip(f *testing.F) {
	// Seed 1: the Table 1 hotel corpus, exactly as deptool would emit it.
	var table1 bytes.Buffer
	if err := relation.WriteCSV(gen.Table1(), &table1); err != nil {
		f.Fatal(err)
	}
	f.Add(table1.String())
	// Seed 2: a synthetic hotel relation with variety/veracity/duplicates.
	var hotels bytes.Buffer
	if err := relation.WriteCSV(gen.Hotels(gen.HotelConfig{
		Rows: 12, Seed: 3, ErrorRate: 0.2, VarietyRate: 0.3, DuplicateRate: 0.2,
	}), &hotels); err != nil {
		f.Fatal(err)
	}
	f.Add(hotels.String())
	// Edge-case seeds.
	f.Add("a,b\n1,2\n3,4\n")
	f.Add("name,region\n\"Chicago, IL\",\"He said \"\"hi\"\"\"\n")
	f.Add("x\n\n")
	f.Add("x,y\n,\n")
	f.Add("h\nπ\n")
	f.Add("\"\r\r\n\"") // a quoted CR before the line's CRLF

	f.Fuzz(func(t *testing.T, data string) {
		r1, err := relation.ReadCSV("fuzz", strings.NewReader(data), nil)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		out1 := renderCSV(t, r1)
		r2, err := relation.ReadCSV("fuzz2", strings.NewReader(out1), nil)
		if err != nil {
			t.Fatalf("re-parse of rendered CSV failed: %v\nrendered:\n%s", err, out1)
		}
		if r1.Rows() != r2.Rows() || r1.Cols() != r2.Cols() {
			t.Fatalf("shape changed: %dx%d -> %dx%d", r1.Rows(), r1.Cols(), r2.Rows(), r2.Cols())
		}
		for i := 0; i < r1.Rows(); i++ {
			for c := 0; c < r1.Cols(); c++ {
				v1, v2 := r1.Value(i, c), r2.Value(i, c)
				if !v1.Equal(v2) {
					t.Fatalf("cell (%d,%d) changed: %q -> %q", i, c, v1, v2)
				}
			}
		}
		out2 := renderCSV(t, r2)
		if out1 != out2 {
			t.Fatalf("render not stable:\nfirst:\n%s\nsecond:\n%s", out1, out2)
		}
	})
}
