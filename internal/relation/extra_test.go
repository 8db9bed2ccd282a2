package relation

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if KindString.String() != "string" || KindFloat.String() != "float" || KindInt.String() != "int" {
		t.Error("kind names")
	}
	if !strings.Contains(Kind(9).String(), "Kind(9)") {
		t.Error("unknown kind")
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{String("hi"), "hi"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Null(KindString), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestValueStringFloatMatchesFormatFloat: a float renders exactly as
// FormatFloat(f, 'g', -1, 64) does, over every integer of [-1e6, 1e6]
// (the integer path's range plus both bounds) and the edges around it.
func TestValueStringFloatMatchesFormatFloat(t *testing.T) {
	check := func(f float64) {
		if got, want := Float(f).String(), strconv.FormatFloat(f, 'g', -1, 64); got != want {
			t.Fatalf("Float(%v).String() = %q, want %q", f, got, want)
		}
	}
	for i := -1000000; i <= 1000000; i++ {
		check(float64(i))
	}
	for _, f := range []float64{
		math.Copysign(0, -1), 1 << 53, -(1 << 53), math.NaN(), math.Inf(1), math.Inf(-1),
		0.5, -0.5, 1e-7, 999999.5, -999999.5, 1e15, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		check(f)
	}
}

func TestSetValueKindPanics(t *testing.T) {
	s := NewSchema(Attribute{Name: "n", Kind: KindInt})
	r := MustFromRows("p", s, [][]Value{{Int(1)}})
	defer func() {
		if recover() == nil {
			t.Error("string into int column should panic")
		}
	}()
	r.SetValue(0, 0, String("oops"))
}

func TestSetValueNullAndCrossNumeric(t *testing.T) {
	s := NewSchema(Attribute{Name: "n", Kind: KindInt})
	r := MustFromRows("p", s, [][]Value{{Int(1)}})
	r.SetValue(0, 0, Null(KindInt))
	if !r.Value(0, 0).IsNull() {
		t.Error("null write failed")
	}
	r.SetValue(0, 0, Float(2)) // numeric cross-kind allowed
	if r.Value(0, 0).Num() != 2 {
		t.Error("cross-numeric write failed")
	}
}

func TestSchemaAttrsAndString(t *testing.T) {
	s := NewSchema(
		Attribute{Name: "a", Kind: KindString},
		Attribute{Name: "b", Kind: KindInt},
	)
	attrs := s.Attrs()
	if len(attrs) != 2 || attrs[1].Name != "b" {
		t.Errorf("Attrs = %v", attrs)
	}
	attrs[0].Name = "mutated"
	if s.Attr(0).Name != "a" {
		t.Error("Attrs must return a copy")
	}
	if got := s.String(); got != "(a string, b int)" {
		t.Errorf("String = %q", got)
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := Strings("a")
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on missing attribute should panic")
		}
	}()
	s.MustIndex("zzz")
}

func TestColumnAccessor(t *testing.T) {
	s := Strings("a")
	r := MustFromRows("c", s, [][]Value{{String("x")}, {String("y")}})
	col := r.Column(0)
	if len(col) != 2 || !col[1].Equal(String("y")) {
		t.Errorf("Column = %v", col)
	}
}

func TestFromRowsError(t *testing.T) {
	s := Strings("a")
	if _, err := FromRows("bad", s, [][]Value{{String("x"), String("y")}}); err == nil {
		t.Error("wide row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFromRows should panic on error")
		}
	}()
	MustFromRows("bad", s, [][]Value{{Int(1)}})
}

func TestWriteCSVNulls(t *testing.T) {
	s := NewSchema(
		Attribute{Name: "a", Kind: KindString},
		Attribute{Name: "n", Kind: KindFloat},
	)
	r := MustFromRows("nulls", s, [][]Value{{Null(KindString), Null(KindFloat)}})
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("nulls", &buf, []Kind{KindString, KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Value(0, 0).IsNull() || !back.Value(0, 1).IsNull() {
		t.Error("nulls did not round-trip through CSV")
	}
}

// TestWriteCSVAllocsIndependentOfRows bounds WriteCSV's allocations on
// string columns, whose cells render without allocating: a 1000-row
// relation may allocate no more than a 10-row one, so no per-row cost
// (such as building an error label for every row) can creep back into
// the fingerprint and render path.
func TestWriteCSVAllocsIndependentOfRows(t *testing.T) {
	build := func(rows int) *Relation {
		s := NewSchema(Attribute{Name: "name", Kind: KindString}, Attribute{Name: "city", Kind: KindString})
		r := New("allocs", s)
		for i := 0; i < rows; i++ {
			city := Null(KindString)
			if i%3 != 0 {
				city = String(fmt.Sprintf("city, %d", i%7))
			}
			if err := r.Append([]Value{String(fmt.Sprintf("n%d", i)), city}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	allocs := func(r *Relation) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := WriteCSV(r, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(10)), allocs(build(1000))
	if large > small {
		t.Fatalf("WriteCSV allocates per row: %v allocs for 10 rows, %v for 1000", small, large)
	}
}
