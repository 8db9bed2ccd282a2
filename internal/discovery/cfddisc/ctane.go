package cfddisc

import (
	"sort"

	"deptree/internal/deps/cfd"
	"deptree/internal/relation"
)

// GeneralOptions configures CTANE-style general CFD discovery.
type GeneralOptions struct {
	// RHS is the dependent column; < 0 searches every column.
	RHS int
	// MinSupport is the minimum number of tuples matching the LHS pattern
	// (default 2).
	MinSupport int
	// MaxLHS bounds the determinant attribute count (default 2).
	MaxLHS int
	// MaxConstants bounds how many frequent constants per attribute are
	// tried in patterns (default 5).
	MaxConstants int
}

func (o GeneralOptions) withDefaults() GeneralOptions {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 2
	}
	if o.MaxConstants == 0 {
		o.MaxConstants = 5
	}
	return o
}

// GeneralCFDs discovers minimal general CFDs (X → A, t_p) with mixed
// wildcard/constant LHS cells and a wildcard RHS cell, in the spirit of
// CTANE [35],[36]: the search lattice ranges over attribute sets *and*
// pattern tuples, a pattern being more general when it has fewer
// constants. A discovered CFD is reported only if no more-general pattern
// over the same or a smaller attribute set already yields a valid rule.
func GeneralCFDs(r *relation.Relation, opts GeneralOptions) []cfd.CFD {
	opts = opts.withDefaults()
	n := r.Cols()
	if n == 0 || r.Rows() == 0 {
		return nil
	}
	rhsCols := []int{opts.RHS}
	if opts.RHS < 0 {
		rhsCols = rhsCols[:0]
		for c := 0; c < n; c++ {
			rhsCols = append(rhsCols, c)
		}
	}
	// Frequent constants per column: the supported values by count, ties
	// in Value.Key order; a constant is its class's last occurrence.
	freqConsts := make([][]relation.Value, n)
	for c := 0; c < n; c++ {
		codes, card := r.Codes(c)
		counts := make([]int, card)
		rep := make([]relation.Value, card)
		for row, code := range codes {
			counts[code]++
			rep[code] = r.Value(row, c)
		}
		keys := make([]string, card)
		var frequent []int
		for code, cnt := range counts {
			if cnt >= opts.MinSupport {
				keys[code] = rep[code].Key()
				frequent = append(frequent, code)
			}
		}
		sort.Slice(frequent, func(i, j int) bool {
			if counts[frequent[i]] != counts[frequent[j]] {
				return counts[frequent[i]] > counts[frequent[j]]
			}
			return keys[frequent[i]] < keys[frequent[j]]
		})
		for i, code := range frequent {
			if i >= opts.MaxConstants {
				break
			}
			freqConsts[c] = append(freqConsts[c], rep[code])
		}
	}

	type node struct {
		cols  []int      // LHS attributes, ascending
		cells []cfd.Cell // aligned pattern cells (wildcard or constant)
	}
	// Enumerate LHS attribute sets up to MaxLHS, then patterns over them
	// ordered by constant count (more general first).
	var attrSets [][]int
	var build func(start int, cur []int)
	build = func(start int, cur []int) {
		if len(cur) > 0 {
			attrSets = append(attrSets, append([]int(nil), cur...))
		}
		if len(cur) == opts.MaxLHS {
			return
		}
		for c := start; c < n; c++ {
			build(c+1, append(cur, c))
		}
	}
	build(0, nil)
	sort.Slice(attrSets, func(i, j int) bool {
		if len(attrSets[i]) != len(attrSets[j]) {
			return len(attrSets[i]) < len(attrSets[j])
		}
		for k := range attrSets[i] {
			if attrSets[i][k] != attrSets[j][k] {
				return attrSets[i][k] < attrSets[j][k]
			}
		}
		return false
	})

	var results []cfd.CFD
	// found[rhs] collects accepted (cols, cells) for generality pruning.
	found := map[int][]node{}

	moreGeneral := func(a node, b node) bool {
		// a is at least as general as b: a's attributes ⊆ b's and, on the
		// shared attributes, every constant of a appears in b (wildcards
		// generalize constants).
		for i, ca := range a.cols {
			pos := -1
			for j, cb := range b.cols {
				if cb == ca {
					pos = j
					break
				}
			}
			if pos < 0 {
				return false
			}
			if !a.cells[i].IsWildcard() {
				if b.cells[pos].IsWildcard() {
					return false
				}
				if !relation.SameKey(a.cells[i].Conds[0].Const, b.cells[pos].Conds[0].Const) {
					return false
				}
			}
		}
		return true
	}

	for _, cols := range attrSets {
		// Pattern enumeration: each attribute is wildcard or a frequent
		// constant. Order by number of constants ascending.
		var patterns [][]cfd.Cell
		var pat func(i int, cur []cfd.Cell)
		pat = func(i int, cur []cfd.Cell) {
			if i == len(cols) {
				patterns = append(patterns, append([]cfd.Cell(nil), cur...))
				return
			}
			pat(i+1, append(cur, cfd.Wildcard()))
			for _, v := range freqConsts[cols[i]] {
				pat(i+1, append(cur, cfd.Const(v)))
			}
		}
		pat(0, nil)
		sort.SliceStable(patterns, func(i, j int) bool {
			return constCount(patterns[i]) < constCount(patterns[j])
		})
		for _, cells := range patterns {
			nd := node{cols: cols, cells: cells}
			for _, a := range rhsCols {
				if contains(cols, a) {
					continue
				}
				// Generality pruning against accepted rules.
				pruned := false
				for _, prev := range found[a] {
					if moreGeneral(prev, nd) {
						pruned = true
						break
					}
				}
				if pruned {
					continue
				}
				cand := assemble(r, cols, cells, a)
				if cand.Support(r) < opts.MinSupport {
					continue
				}
				if cand.Holds(r) {
					results = append(results, cand)
					found[a] = append(found[a], nd)
				}
			}
		}
	}
	return results
}

func constCount(cells []cfd.Cell) int {
	n := 0
	for _, c := range cells {
		if !c.IsWildcard() {
			n++
		}
	}
	return n
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func assemble(r *relation.Relation, cols []int, cells []cfd.Cell, rhs int) cfd.CFD {
	x := make([]string, len(cols))
	for i, c := range cols {
		x[i] = r.Schema().Attr(c).Name
	}
	all := append(append([]cfd.Cell{}, cells...), cfd.Wildcard())
	c, err := cfd.New(r.Schema(), x, []string{r.Schema().Attr(rhs).Name}, all)
	if err != nil {
		panic(err) // constructed from the schema: cannot fail
	}
	return c
}

// RangeECFDs discovers eCFDs whose condition is a numeric range on one
// attribute (in the spirit of discovering CFDs with built-in predicates
// [114]): for a numeric condition column B and embedded FD X → A, it finds
// maximal-coverage intervals [lo, hi] of B values on which the FD holds,
// and emits eCFDs (B∈[lo,hi], X → A). Candidate interval endpoints are the
// distinct B values; the search mirrors the CSD tableau DP.
func RangeECFDs(r *relation.Relation, condCol int, x []int, a int, minSupport int) []cfd.CFD {
	if r.Rows() == 0 {
		return nil
	}
	if minSupport <= 0 {
		minSupport = 2
	}
	// Distinct sorted condition values.
	var vals []float64
	seen := map[float64]bool{}
	for row := 0; row < r.Rows(); row++ {
		v := r.Value(row, condCol).Num()
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	// Valid maximal intervals: expand [i, j] while the conditioned FD
	// holds; greedily take the longest valid interval starting at each i,
	// skipping intervals inside an already-taken one.
	holdsOn := func(lo, hi float64) (bool, int) {
		sub := r.Select(func(row int) bool {
			v := r.Value(row, condCol).Num()
			return v >= lo && v <= hi
		})
		if sub.Rows() < minSupport {
			return false, sub.Rows()
		}
		emb := cfd.FromFD(x, []int{a}, r.Schema())
		return emb.Holds(sub), sub.Rows()
	}
	var out []cfd.CFD
	covered := -1
	for i := 0; i < len(vals); i++ {
		if i <= covered {
			continue
		}
		best := -1
		for j := i; j < len(vals); j++ {
			if ok, _ := holdsOn(vals[i], vals[j]); ok {
				best = j
			} else if best >= 0 {
				break
			}
		}
		if best < 0 {
			continue
		}
		// Assemble the eCFD: B ≥ lo AND B ≤ hi via two condition columns
		// is not expressible in one cell; use a disjunctive cell when the
		// interval is a single point, otherwise a pair of predicate cells
		// on the same attribute (allowed: X may repeat a column? No —
		// schema indices must be unique). Represent the range with the
		// conjunction of ≥lo on the condition cell and a second check via
		// an eCFD whose cell uses ≤hi when lo is the global minimum, ≥lo
		// when hi is the global maximum, or an explicit disjunction of
		// equality conditions over the covered distinct values otherwise.
		var cell cfd.Cell
		switch {
		case i == 0 && best == len(vals)-1:
			cell = cfd.Wildcard()
		case i == 0:
			cell = cfd.Pred(cfd.OpLe, relation.Float(vals[best]))
		case best == len(vals)-1:
			cell = cfd.Pred(cfd.OpGe, relation.Float(vals[i]))
		default:
			var conds []cfd.Cond
			for k := i; k <= best; k++ {
				conds = append(conds, cfd.Cond{Op: cfd.OpEq, Const: relation.Float(vals[k])})
			}
			cell = cfd.AnyOf(conds...)
		}
		names := make([]string, 0, len(x)+1)
		cells := make([]cfd.Cell, 0, len(x)+2)
		names = append(names, r.Schema().Attr(condCol).Name)
		cells = append(cells, cell)
		for _, c := range x {
			names = append(names, r.Schema().Attr(c).Name)
			cells = append(cells, cfd.Wildcard())
		}
		cells = append(cells, cfd.Wildcard())
		e, err := cfd.New(r.Schema(), names, []string{r.Schema().Attr(a).Name}, cells)
		if err != nil {
			panic(err)
		}
		out = append(out, e)
		covered = best
	}
	return out
}
