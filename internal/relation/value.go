// Package relation provides the relational data model underlying every
// dependency class in the library: typed values, schemas, and in-memory
// column-oriented relation instances.
//
// The model deliberately mirrors the notation of the paper (Table 4): a
// relation scheme R with attributes, an instance r, and tuples t. Values are
// dynamically typed (string, float, int, or null) because the paper's
// dependency families span categorical data (equality), heterogeneous data
// (similarity metrics on strings and numbers) and numerical data (order).
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types supported by the data model.
type Kind int

const (
	// KindString is categorical / textual data.
	KindString Kind = iota
	// KindFloat is numerical data with fractional precision.
	KindFloat
	// KindInt is integral numerical data.
	KindInt
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single cell of a relation instance. The zero Value is a null
// string. Null values compare equal to each other and unequal to everything
// else, matching the SQL-free semantics used throughout the dependency
// literature surveyed by the paper.
type Value struct {
	kind Kind
	str  string
	num  float64
	null bool
}

// String constructs a categorical value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Float constructs a fractional numerical value.
func Float(f float64) Value { return Value{kind: KindFloat, num: f} }

// Int constructs an integral numerical value.
func Int(i int) Value { return Value{kind: KindInt, num: float64(i)} }

// Null constructs a null value of the given kind.
func Null(k Kind) Value { return Value{kind: k, null: true} }

// Kind reports the type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.null }

// IsNumeric reports whether the value kind admits arithmetic and order.
func (v Value) IsNumeric() bool { return v.kind == KindFloat || v.kind == KindInt }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// Num returns the numeric payload as float64. It is only meaningful for
// numeric kinds.
func (v Value) Num() float64 { return v.num }

// Equal is the `=` predicate of comparison-based rules (DCs, MDs, CFD
// pattern constants): same kind class (numerics compare across
// KindInt/KindFloat), same payload, with IEEE numeric equality — NaN is
// unequal to everything, itself included, and -0 equals +0. Nulls are
// equal only to nulls. Grouping cells into equivalence classes uses
// SameKey and the dictionary codes instead, which differ on exactly those
// two points.
func (v Value) Equal(w Value) bool {
	if v.null || w.null {
		return v.null && w.null
	}
	if v.kind == KindString || w.kind == KindString {
		return v.kind == w.kind && v.str == w.str
	}
	return v.num == w.num
}

// Compare orders two values: -1 if v < w, 0 if equal, +1 if v > w.
// Strings order lexicographically, numerics by value. Nulls order before
// every non-null value.
func (v Value) Compare(w Value) int {
	switch {
	case v.null && w.null:
		return 0
	case v.null:
		return -1
	case w.null:
		return 1
	}
	if v.kind == KindString && w.kind == KindString {
		switch {
		case v.str < w.str:
			return -1
		case v.str > w.str:
			return 1
		default:
			return 0
		}
	}
	if v.IsNumeric() && w.IsNumeric() {
		switch {
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		default:
			return 0
		}
	}
	// Mixed kinds: order by kind to keep Compare total.
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	return 0
}

// Key returns the canonical string of v's equivalence class: two values
// have equal keys exactly when SameKey holds, so nulls of every kind share
// one key, every NaN formats as "n:NaN", and -0 and +0 keys differ. It
// serves encodings (fingerprints, the stream WAL) and string tie-breaks;
// grouping cells goes through Dict, Codes or SameKey, never a map of keys.
func (v Value) Key() string {
	if v.null {
		return "\x00null"
	}
	switch v.kind {
	case KindString:
		return "s:" + v.str
	default:
		return "n:" + strconv.FormatFloat(v.num, 'g', -1, 64)
	}
}

// String renders the value for display, as appendValue does.
func (v Value) String() string {
	if v.kind == KindString && !v.null {
		return v.str
	}
	var buf [32]byte
	return string(appendValue(buf[:0], v))
}

// appendValue appends v's display form to b: NULL for a null, a
// string's payload, or a number's shortest 'g' form. A whole float
// strictly inside ±1e6, other than -0, renders through the integer
// formatter: 'g' with the shortest precision prints those without an
// exponent, so the bytes are the same and the float digit search is
// skipped. WriteCSV renders numeric cells through it too, so display
// and CSV cannot drift.
func appendValue(b []byte, v Value) []byte {
	if v.null {
		return append(b, "NULL"...)
	}
	switch v.kind {
	case KindString:
		return append(b, v.str...)
	case KindInt:
		return strconv.AppendInt(b, int64(v.num), 10)
	default:
		f := v.num
		if f > -1e6 && f < 1e6 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, int64(f), 10)
		}
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
}

// Distance returns |v-w| for numeric values and math.NaN for non-numeric or
// null operands. It is the default metric on numerical attributes used by
// MFDs, DDs, PACs and SDs (paper §3.3.1).
func (v Value) Distance(w Value) float64 {
	if v.null || w.null || !v.IsNumeric() || !w.IsNumeric() {
		return math.NaN()
	}
	return math.Abs(v.num - w.num)
}

// Parse converts a raw string into a Value of the requested kind. Empty
// strings parse to null.
func Parse(s string, k Kind) (Value, error) {
	if s == "" {
		return Null(k), nil
	}
	switch k {
	case KindString:
		return String(s), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse %q as float: %w", s, err)
		}
		return Float(f), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse %q as int: %w", s, err)
		}
		return Int(int(i)), nil
	default:
		return Value{}, fmt.Errorf("relation: unknown kind %v", k)
	}
}
