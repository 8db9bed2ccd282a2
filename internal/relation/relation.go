package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is an in-memory instance r over a schema R. Storage is
// column-oriented: dependency validation and discovery are column-heavy
// (partition building, metric scans), and columnar layout keeps those scans
// cache-friendly and allows per-column dictionary encoding.
type Relation struct {
	name   string
	schema *Schema
	cols   [][]Value
	rows   int
}

// New creates an empty relation instance over the schema.
func New(name string, schema *Schema) *Relation {
	cols := make([][]Value, schema.Len())
	return &Relation{name: name, schema: schema, cols: cols}
}

// FromRows builds a relation from row-major values. Every row must match the
// schema width; kinds are checked.
func FromRows(name string, schema *Schema, rows [][]Value) (*Relation, error) {
	r := New(name, schema)
	for i, row := range rows {
		if err := r.Append(row); err != nil {
			return nil, fmt.Errorf("relation %s row %d: %w", name, i, err)
		}
	}
	return r, nil
}

// MustFromRows is FromRows for statically-known fixtures; it panics on error.
func MustFromRows(name string, schema *Schema, rows [][]Value) *Relation {
	r, err := FromRows(name, schema, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation scheme.
func (r *Relation) Schema() *Schema { return r.schema }

// Rows returns the number of tuples |r|.
func (r *Relation) Rows() int { return r.rows }

// Cols returns the number of attributes.
func (r *Relation) Cols() int { return r.schema.Len() }

// Value returns the cell at (row, col).
func (r *Relation) Value(row, col int) Value { return r.cols[col][row] }

// SetValue overwrites the cell at (row, col). It is used by repair
// algorithms, which modify instances in place on their own copies.
func (r *Relation) SetValue(row, col int, v Value) {
	if want := r.schema.Attr(col).Kind; !v.IsNull() && v.Kind() != want && !(v.IsNumeric() && (want == KindFloat || want == KindInt)) {
		panic(fmt.Sprintf("relation: kind mismatch writing %v to column %s (%v)", v.Kind(), r.schema.Attr(col).Name, want))
	}
	r.cols[col][row] = v
}

// Column returns the backing slice for a column. Callers must not modify it.
func (r *Relation) Column(col int) []Value { return r.cols[col] }

// Append adds one tuple.
func (r *Relation) Append(row []Value) error {
	if len(row) != r.schema.Len() {
		return fmt.Errorf("relation: row width %d != schema width %d", len(row), r.schema.Len())
	}
	if r.rows >= MaxSupportedRows {
		return fmt.Errorf("relation: append: %w",
			&ErrInputTooLarge{What: "rows", Limit: MaxSupportedRows, Got: int64(r.rows) + 1})
	}
	for i, v := range row {
		want := r.schema.Attr(i).Kind
		if !v.IsNull() && v.Kind() != want && !(v.IsNumeric() && (want == KindFloat || want == KindInt)) {
			return fmt.Errorf("relation: column %s expects %v, got %v (%v)", r.schema.Attr(i).Name, want, v.Kind(), v)
		}
	}
	for i, v := range row {
		r.cols[i] = append(r.cols[i], v)
	}
	r.rows++
	return nil
}

// Tuple returns row i as a value slice (a fresh copy).
func (r *Relation) Tuple(i int) []Value {
	t := make([]Value, r.Cols())
	for c := range r.cols {
		t[c] = r.cols[c][i]
	}
	return t
}

// Clone deep-copies the instance. Repair algorithms operate on clones so
// violation detection over the original stays valid.
func (r *Relation) Clone() *Relation {
	c := New(r.name, r.schema)
	c.rows = r.rows
	for i := range r.cols {
		c.cols[i] = append([]Value(nil), r.cols[i]...)
	}
	return c
}

// Project returns a new relation with only the given columns, preserving
// tuple order (a multiset projection: duplicates are kept).
func (r *Relation) Project(cols []int) *Relation {
	p := New(r.name, r.schema.Project(cols))
	p.rows = r.rows
	for i, c := range cols {
		p.cols[i] = append([]Value(nil), r.cols[c]...)
	}
	return p
}

// Select returns a new relation containing the rows for which keep returns
// true.
func (r *Relation) Select(keep func(row int) bool) *Relation {
	s := New(r.name, r.schema)
	for i := 0; i < r.rows; i++ {
		if keep(i) {
			t := make([]Value, r.Cols())
			for c := range r.cols {
				t[c] = r.cols[c][i]
			}
			if err := s.Append(t); err != nil {
				panic(err) // same schema: cannot fail
			}
		}
	}
	return s
}

// SortedIndex returns row indices ordered by the given columns
// (lexicographic over the column list, Value.Compare within a column).
// The relation itself is not modified. Sequential dependencies (§4.4) sort
// on the determinant attributes before checking consecutive distances.
func (r *Relation) SortedIndex(cols []int) []int {
	idx := make([]int, r.rows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for _, c := range cols {
			if cmp := r.cols[c][ia].Compare(r.cols[c][ib]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return idx
}

// DistinctCount returns |dom(X)|_r, the number of distinct value
// combinations over the listed columns (paper §2.1.1).
func (r *Relation) DistinctCount(cols []int) int {
	_, card := r.GroupCodes(cols)
	return card
}

// String renders the instance as an aligned text table (used by examples and
// the deptool CLI).
func (r *Relation) String() string {
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, r.rows)
	for i := 0; i < r.rows; i++ {
		cells[i] = make([]string, len(names))
		for c := range names {
			s := r.cols[c][i].String()
			cells[i][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.name)
	for c, n := range names {
		fmt.Fprintf(&b, "  %-*s", widths[c], n)
	}
	b.WriteByte('\n')
	for i := 0; i < r.rows; i++ {
		for c := range names {
			fmt.Fprintf(&b, "  %-*s", widths[c], cells[i][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
