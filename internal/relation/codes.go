package relation

import "math"

// Dictionary encoding. Every equality-based measure (partitions, PFD
// probability, SFD strength, FD validation) starts from per-row integer
// codes in which equal cells share a code. The equivalence is exactly
// Value.Key's: nulls of every kind share one code, strings compare by
// payload, numerics by float bits (so -0 and +0 get distinct codes, as
// their keys "n:-0" and "n:0" differ) except that every NaN payload
// shares one code (every NaN formats as "n:NaN"). Codes are assigned in
// first-appearance order, so code order is first-row order — the
// canonical class order partition.FromCodes relies on.

// canonicalNaN is the float bit pattern every NaN payload is folded to.
var canonicalNaN = math.Float64bits(math.NaN())

// dictionary assigns first-appearance codes to cells of one column
// without building per-cell key strings: string payloads index one map
// and numeric bit patterns another, so the only allocations are the maps'
// own tables.
type dictionary struct {
	strs map[string]int
	nums map[uint64]int
	// null is the null code plus one; 0 means no null seen yet.
	null int
	n    int
}

func (d *dictionary) code(v Value) int {
	switch {
	case v.null:
		if d.null == 0 {
			d.n++
			d.null = d.n
		}
		return d.null - 1
	case v.kind == KindString:
		c, ok := d.strs[v.str]
		if !ok {
			if d.strs == nil {
				d.strs = make(map[string]int)
			}
			c = d.n
			d.strs[v.str] = c
			d.n++
		}
		return c
	default:
		bits := math.Float64bits(v.num)
		if v.num != v.num {
			bits = canonicalNaN
		}
		c, ok := d.nums[bits]
		if !ok {
			if d.nums == nil {
				d.nums = make(map[uint64]int)
			}
			c = d.n
			d.nums[bits] = c
			d.n++
		}
		return c
	}
}

// Codes dictionary-encodes a column: cells with equal Value.Key receive
// equal small integer codes in first-appearance order. It returns the code
// per row and the number of distinct codes. Partition construction (TANE
// et al.) and counting-based measures (SFD strength, PFD probability) all
// start from these codes.
func (r *Relation) Codes(col int) (codes []int, card int) {
	codes = make([]int, r.rows)
	var d dictionary
	for i, v := range r.cols[col] {
		codes[i] = d.code(v)
	}
	return codes, d.n
}

// GroupCodes dictionary-encodes the concatenation of several columns:
// rows with equal values on all listed columns share a code, assigned in
// first-appearance order. It returns the code per row and the number of
// distinct groups |dom(X)|_r. The per-column codes are composed pairwise
// (ComposeCodes), so no tuple key is ever materialized. An empty column
// list puts every row in one group.
func (r *Relation) GroupCodes(cols []int) (codes []int, card int) {
	if len(cols) == 0 {
		return make([]int, r.rows), min(r.rows, 1)
	}
	codes, card = r.Codes(cols[0])
	for _, c := range cols[1:] {
		next, _ := r.Codes(c)
		codes, card = ComposeCodes(codes, next)
	}
	return codes, card
}

// ComposeCodes encodes the row-wise pairs of two encodings of the same
// rows: rows share a result code exactly when they share both an a-code
// and a b-code. Result codes are assigned in first-appearance order, so
// composing column codes column by column yields exactly GroupCodes over
// those columns. The inputs are not modified. Each pair is packed into
// one uint64 map key (codes are below 2³¹, bounded by MaxSupportedRows).
func ComposeCodes(a, b []int) (codes []int, card int) {
	codes = make([]int, len(a))
	seen := make(map[uint64]int)
	for i, x := range a {
		k := uint64(x)<<32 | uint64(b[i])
		c, ok := seen[k]
		if !ok {
			c = card
			seen[k] = c
			card++
		}
		codes[i] = c
	}
	return codes, card
}
