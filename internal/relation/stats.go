package relation

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ColumnStats summarizes one column — the catalog statistics that
// CORDS-style discovery (paper §2.1.3) and selectivity estimation consume.
type ColumnStats struct {
	// Name and Kind identify the column.
	Name string
	Kind Kind
	// Rows, Nulls and Distinct count tuples, null cells and distinct
	// non-null values.
	Rows, Nulls, Distinct int
	// Min and Max hold the numeric range (NaN for non-numeric columns).
	Min, Max float64
	// TopValues lists the most frequent values with counts, descending.
	TopValues []ValueCount
}

// ValueCount pairs a value with its frequency.
type ValueCount struct {
	Value Value
	Count int
}

// Uniqueness returns Distinct / (Rows − Nulls): 1.0 marks a key candidate.
func (s ColumnStats) Uniqueness() float64 {
	nonNull := s.Rows - s.Nulls
	if nonNull == 0 {
		return 0
	}
	return float64(s.Distinct) / float64(nonNull)
}

// IsConstant reports whether the column has at most one distinct value.
func (s ColumnStats) IsConstant() bool { return s.Distinct <= 1 }

// String renders the stats line.
func (s ColumnStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %d distinct", s.Name, s.Kind, s.Distinct)
	if s.Nulls > 0 {
		fmt.Fprintf(&b, ", %d null", s.Nulls)
	}
	if !math.IsNaN(s.Min) {
		fmt.Fprintf(&b, ", range [%g, %g]", s.Min, s.Max)
	}
	if len(s.TopValues) > 0 {
		fmt.Fprintf(&b, ", top %v (%d)", s.TopValues[0].Value, s.TopValues[0].Count)
	}
	return b.String()
}

// Stats computes column statistics with up to topK most frequent values
// per column (topK ≤ 0 keeps none). Frequency ties break on Value.Key
// order; a top value is its class's last occurrence.
func Stats(r *Relation, topK int) []ColumnStats {
	out := make([]ColumnStats, r.Cols())
	for c := 0; c < r.Cols(); c++ {
		attr := r.Schema().Attr(c)
		st := ColumnStats{Name: attr.Name, Kind: attr.Kind, Rows: r.Rows(), Min: math.NaN(), Max: math.NaN()}
		codes, card := r.Codes(c)
		counts := make([]int, card)
		rep := make([]Value, card)
		for row, code := range codes {
			v := r.cols[c][row]
			if v.IsNull() {
				st.Nulls++
				continue
			}
			counts[code]++
			rep[code] = v
			if v.IsNumeric() {
				if math.IsNaN(st.Min) || v.Num() < st.Min {
					st.Min = v.Num()
				}
				if math.IsNaN(st.Max) || v.Num() > st.Max {
					st.Max = v.Num()
				}
			}
		}
		var top []int
		for code, n := range counts {
			if n > 0 {
				top = append(top, code)
			}
		}
		st.Distinct = len(top)
		if topK > 0 {
			keys := make([]string, card)
			for _, code := range top {
				keys[code] = rep[code].Key()
			}
			sort.Slice(top, func(i, j int) bool {
				if counts[top[i]] != counts[top[j]] {
					return counts[top[i]] > counts[top[j]]
				}
				return keys[top[i]] < keys[top[j]]
			})
			for _, code := range top[:min(topK, len(top))] {
				st.TopValues = append(st.TopValues, ValueCount{Value: rep[code], Count: counts[code]})
			}
		}
		out[c] = st
	}
	return out
}
