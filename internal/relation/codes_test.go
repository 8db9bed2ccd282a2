package relation_test

import (
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// keyGroupCodes is the string-keyed reference encoding: one Value.Key()
// string per cell, length-prefixed so no payload can forge a column
// boundary, grouped through a map in first-appearance order. Codes and
// GroupCodes must agree with it code for code.
func keyGroupCodes(r *relation.Relation, cols []int) ([]int, int) {
	codes := make([]int, r.Rows())
	dict := make(map[string]int)
	var b strings.Builder
	for i := range codes {
		b.Reset()
		for _, c := range cols {
			k := r.Value(i, c).Key()
			b.WriteString(strconv.Itoa(len(k)))
			b.WriteByte(':')
			b.WriteString(k)
		}
		k := b.String()
		c, ok := dict[k]
		if !ok {
			c = len(dict)
			dict[k] = c
		}
		codes[i] = c
	}
	return codes, len(dict)
}

// checkAgainstKey compares Codes on every column and GroupCodes on every
// ordered column pair, the whole schema and the empty list against the
// reference encoding.
func checkAgainstKey(t *testing.T, r *relation.Relation) {
	t.Helper()
	check := func(cols []int, got []int, gotCard int) {
		t.Helper()
		want, wantCard := keyGroupCodes(r, cols)
		if gotCard != wantCard || !slices.Equal(got, want) {
			t.Fatalf("cols %v: got card %d codes %v, want card %d codes %v", cols, gotCard, got, wantCard, want)
		}
	}
	n := r.Cols()
	all := make([]int, n)
	for c := 0; c < n; c++ {
		all[c] = c
		got, card := r.Codes(c)
		check([]int{c}, got, card)
		for d := 0; d < n; d++ {
			got, card := r.GroupCodes([]int{c, d})
			check([]int{c, d}, got, card)
		}
	}
	got, card := r.GroupCodes(all)
	check(all, got, card)
	got, card = r.GroupCodes(nil)
	check(nil, got, card)
}

// TestGroupCodesSeparatorCollision: two distinct tuples whose cells, once
// rendered as keys and joined with a separator byte, spell the same
// string must still fall into different groups.
func TestGroupCodesSeparatorCollision(t *testing.T) {
	s := relation.NewSchema(relation.Attribute{Name: "a"}, relation.Attribute{Name: "b"})
	r := relation.MustFromRows("r", s, [][]relation.Value{
		{relation.String("x\x1fs:y"), relation.String("z")},
		{relation.String("x"), relation.String("y\x1fs:z")},
	})
	codes, card := r.GroupCodes([]int{0, 1})
	if card != 2 || codes[0] == codes[1] {
		t.Fatalf("GroupCodes = %v card %d, want two groups", codes, card)
	}
	if n := r.DistinctCount([]int{0, 1}); n != 2 {
		t.Errorf("DistinctCount = %d, want 2", n)
	}
}

// TestCodesKeyEquivalence pins the edge cases of Key's equivalence: all
// NaN payloads share a code, -0 and +0 do not, Int and Float of one value
// do, and nulls of every kind share one code.
func TestCodesKeyEquivalence(t *testing.T) {
	s := relation.NewSchema(relation.Attribute{Name: "v", Kind: relation.KindFloat})
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	r := relation.MustFromRows("r", s, [][]relation.Value{
		{relation.Float(math.NaN())},
		{relation.Float(otherNaN)},
		{relation.Float(0)},
		{relation.Float(math.Copysign(0, -1))},
		{relation.Int(3)},
		{relation.Float(3)},
		{relation.Null(relation.KindFloat)},
		{relation.Null(relation.KindString)},
	})
	codes, card := r.Codes(0)
	want := []int{0, 0, 1, 2, 3, 3, 4, 4}
	if card != 5 || !slices.Equal(codes, want) {
		t.Fatalf("Codes = %v card %d, want %v card 5", codes, card, want)
	}
	checkAgainstKey(t, r)
	checkDictAndSameKey(t, r)
}

// TestCodesMatchKeyOnHotels checks the typed encoding against the
// reference on generated hotel relations with nulls, variety and
// duplicate rows.
func TestCodesMatchKeyOnHotels(t *testing.T) {
	for _, rows := range []int{0, 1, 40, 600} {
		r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 5, ErrorRate: 0.1, VarietyRate: 0.2, DuplicateRate: 0.2})
		checkAgainstKey(t, r)
	}
}

// fuzzRelation decodes bytes into a relation of up to three columns. The
// first byte picks the width and which columns are strings; each cell
// then consumes a tag byte and a payload: nulls, short strings drawn from
// an alphabet that includes the old key separator and key prefixes,
// small ints, NaN with varying payloads, ±0 and raw float bits.
func fuzzRelation(data []byte) *relation.Relation {
	if len(data) == 0 {
		return nil
	}
	ncols := 1 + int(data[0]%3)
	strCols := data[0] >> 2
	data = data[1:]
	attrs := make([]relation.Attribute, ncols)
	for c := range attrs {
		attrs[c] = relation.Attribute{Name: "c" + strconv.Itoa(c), Kind: relation.KindFloat}
		if strCols>>c&1 == 1 {
			attrs[c].Kind = relation.KindString
		}
	}
	r := relation.New("fuzz", relation.NewSchema(attrs...))
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	const alphabet = "xyz\x1fs:n\x00"
	row := make([]relation.Value, ncols)
	for len(data) > 0 && r.Rows() < 64 {
		for c := range row {
			tag := next()
			if tag%4 == 0 {
				row[c] = relation.Null(attrs[(c+int(tag))%ncols].Kind)
				continue
			}
			if attrs[c].Kind == relation.KindString {
				var b strings.Builder
				for k := 0; k < int(tag>>2)%4; k++ {
					b.WriteByte(alphabet[int(next())%len(alphabet)])
				}
				row[c] = relation.String(b.String())
				continue
			}
			switch tag % 4 {
			case 1:
				row[c] = relation.Int(int(next()%4) - 1)
			case 2:
				nan := math.Float64bits(math.NaN()) ^ uint64(next())
				zero := math.Copysign(0, float64(int(tag>>2)%2*-2+1))
				row[c] = relation.Float([]float64{math.Float64frombits(nan), zero}[tag>>3%2])
			default:
				var buf [8]byte
				for k := range buf {
					buf[k] = next()
				}
				row[c] = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
			}
		}
		if err := r.Append(row); err != nil {
			panic(err) // kinds follow the schema: cannot fail
		}
	}
	return r
}

// checkDictAndSameKey feeds every cell, row-major across all columns, to
// one Dict and checks its codes and Len against first-appearance codes of
// Value.Key, and checks SameKey against key equality on every cell pair.
func checkDictAndSameKey(t *testing.T, r *relation.Relation) {
	t.Helper()
	var cells []relation.Value
	for i := 0; i < r.Rows(); i++ {
		cells = append(cells, r.Tuple(i)...)
	}
	var d relation.Dict
	ref := map[string]int{}
	for _, v := range cells {
		want, ok := ref[v.Key()]
		if !ok {
			want = len(ref)
			ref[v.Key()] = want
		}
		if got := d.Code(v); got != want {
			t.Fatalf("Dict.Code(%q) = %d, want %d", v.Key(), got, want)
		}
	}
	if d.Len() != len(ref) {
		t.Fatalf("Dict.Len() = %d, want %d", d.Len(), len(ref))
	}
	for _, v := range cells {
		for _, w := range cells {
			if got, want := relation.SameKey(v, w), v.Key() == w.Key(); got != want {
				t.Fatalf("SameKey(%q, %q) = %v, want %v", v.Key(), w.Key(), got, want)
			}
		}
	}
}

// FuzzCodesMatchKey: the typed Codes/GroupCodes, an incremental Dict and
// SameKey all agree with the string-keyed reference encoding, codes and
// cardinality, on arbitrary relations.
func FuzzCodesMatchKey(f *testing.F) {
	f.Add([]byte{0x07, 1, 0, 2, 5, 6, 1, 3})
	f.Add([]byte{0x06, 4, 1, 3, 5, 4, 2, 1, 5, 3, 0, 3, 1, 3, 2})
	f.Add([]byte{0x00, 2, 7, 2, 7, 10, 7, 14, 0, 1, 1, 1, 1})
	f.Add([]byte{0x1d, 13, 3, 4, 0, 9, 1, 3, 4, 0, 9, 1, 13, 3, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzRelation(data)
		if r == nil {
			return
		}
		checkAgainstKey(t, r)
		checkDictAndSameKey(t, r)
	})
}
