// Package cfd implements conditional functional dependencies (paper §2.5,
// Bohannon et al. [11], Fan et al. [34]) and their extension eCFDs (§2.5.5,
// Bravo et al. [14]).
//
// A CFD (X → Y, t_p) embeds a standard FD that holds only on the subset of
// tuples matching the pattern tuple t_p, whose cells are constants or the
// unnamed wildcard '_'. eCFDs generalize pattern cells to predicates
// 'op a' with op ∈ {=, ≠, <, ≤, >, ≥} and disjunctions of such predicates.
package cfd

import (
	"fmt"
	"strings"

	"deptree/internal/deps"
	"deptree/internal/relation"
)

// Op is a comparison operator usable in eCFD pattern cells.
type Op int

// The negation-closed operator set of the paper.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Eval applies the operator to Compare/Equal results on (v, c).
func (o Op) Eval(v, c relation.Value) bool {
	switch o {
	case OpEq:
		return v.Equal(c)
	case OpNe:
		return !v.Equal(c)
	}
	if v.IsNull() || c.IsNull() {
		return false
	}
	cmp := v.Compare(c)
	switch o {
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// Cond is a single predicate 'op a' of an eCFD pattern cell.
type Cond struct {
	Op    Op
	Const relation.Value
}

// Cell is one pattern-tuple entry. An empty Conds list is the unnamed
// wildcard '_'; a non-empty list matches if ANY condition holds (the
// disjunction extension of eCFDs). Classic CFDs use only wildcard cells and
// singleton {= a} cells.
type Cell struct {
	Conds []Cond
}

// Wildcard is the unnamed-variable pattern cell '_'.
func Wildcard() Cell { return Cell{} }

// Const is the classic constant pattern cell '= a'.
func Const(v relation.Value) Cell { return Cell{Conds: []Cond{{Op: OpEq, Const: v}}} }

// Pred is a single-predicate eCFD cell 'op a'.
func Pred(op Op, v relation.Value) Cell { return Cell{Conds: []Cond{{Op: op, Const: v}}} }

// AnyOf is a disjunctive eCFD cell.
func AnyOf(conds ...Cond) Cell { return Cell{Conds: conds} }

// IsWildcard reports whether the cell is '_'.
func (c Cell) IsWildcard() bool { return len(c.Conds) == 0 }

// Matches reports whether value v matches the cell.
func (c Cell) Matches(v relation.Value) bool {
	if c.IsWildcard() {
		return true
	}
	for _, cond := range c.Conds {
		if cond.Op.Eval(v, cond.Const) {
			return true
		}
	}
	return false
}

// IsClassic reports whether the cell is expressible in a classic CFD
// (wildcard or a single equality constant).
func (c Cell) IsClassic() bool {
	return c.IsWildcard() || (len(c.Conds) == 1 && c.Conds[0].Op == OpEq)
}

// String renders the cell.
func (c Cell) String() string {
	if c.IsWildcard() {
		return "_"
	}
	parts := make([]string, len(c.Conds))
	for i, cond := range c.Conds {
		parts[i] = fmt.Sprintf("%s%v", cond.Op, cond.Const)
	}
	return strings.Join(parts, "|")
}

// CFD is a conditional functional dependency (X → Y, t_p). With only
// classic cells it is a CFD proper; with inequality or disjunctive cells it
// is an eCFD. X and Y are ordered column lists; the pattern tuple covers X
// then Y.
type CFD struct {
	// X and Y are the determinant and dependent column indices.
	X, Y []int
	// Pattern is the pattern tuple t_p: len(X)+len(Y) cells, X cells first.
	Pattern []Cell
	// Schema names attributes for rendering.
	Schema *relation.Schema
}

// New assembles and validates a CFD.
func New(schema *relation.Schema, x, y []string, pattern []Cell) (CFD, error) {
	xi, err := schema.Indices(x...)
	if err != nil {
		return CFD{}, fmt.Errorf("cfd: %w", err)
	}
	yi, err := schema.Indices(y...)
	if err != nil {
		return CFD{}, fmt.Errorf("cfd: %w", err)
	}
	if len(pattern) != len(xi)+len(yi) {
		return CFD{}, fmt.Errorf("cfd: pattern has %d cells for %d attributes", len(pattern), len(xi)+len(yi))
	}
	return CFD{X: xi, Y: yi, Pattern: pattern, Schema: schema}, nil
}

// Must is New for statically-known dependencies; it panics on error.
func Must(schema *relation.Schema, x, y []string, pattern []Cell) CFD {
	c, err := New(schema, x, y, pattern)
	if err != nil {
		panic(err)
	}
	return c
}

// FromFD embeds a plain FD as a CFD whose pattern tuple is all wildcards
// (Fig 1: FD → CFD). The FD's attribute sets are ordered ascending.
func FromFD(x, y []int, schema *relation.Schema) CFD {
	pattern := make([]Cell, len(x)+len(y))
	return CFD{X: x, Y: y, Pattern: pattern, Schema: schema}
}

// Extended reports whether the CFD uses eCFD-only cells (non-equality
// operators or disjunction).
func (c CFD) Extended() bool {
	for _, cell := range c.Pattern {
		if !cell.IsClassic() {
			return true
		}
	}
	return false
}

// Kind implements deps.Dependency: "CFD", or "eCFD" when extended cells are
// present.
func (c CFD) Kind() string {
	if c.Extended() {
		return "eCFD"
	}
	return "CFD"
}

// String renders the dependency in the paper's readable notation, e.g.
// "region=Jackson, name=_ -> address=_".
func (c CFD) String() string {
	var names []string
	if c.Schema != nil {
		names = c.Schema.Names()
	}
	attr := func(i int) string {
		if names != nil && i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("a%d", i)
	}
	var b strings.Builder
	for k, col := range c.X {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s%s", attr(col), cellSuffix(c.Pattern[k]))
	}
	b.WriteString(" -> ")
	for k, col := range c.Y {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s%s", attr(col), cellSuffix(c.Pattern[len(c.X)+k]))
	}
	return b.String()
}

func cellSuffix(c Cell) string {
	if c.IsWildcard() {
		return "=_"
	}
	if len(c.Conds) == 1 && c.Conds[0].Op == OpEq {
		return fmt.Sprintf("=%v", c.Conds[0].Const)
	}
	return "(" + c.String() + ")"
}

// MatchesLHS reports whether row i matches every X pattern cell.
func (c CFD) MatchesLHS(r *relation.Relation, i int) bool {
	for k, col := range c.X {
		if !c.Pattern[k].Matches(r.Value(i, col)) {
			return false
		}
	}
	return true
}

// matchesRHS reports whether row i matches every Y pattern cell.
func (c CFD) matchesRHS(r *relation.Relation, i int) bool {
	for k, col := range c.Y {
		if !c.Pattern[len(c.X)+k].Matches(r.Value(i, col)) {
			return false
		}
	}
	return true
}

// Support counts the tuples matching the LHS pattern — the coverage measure
// central to CFD discovery (§2.5.3).
func (c CFD) Support(r *relation.Relation) int {
	n := 0
	for i := 0; i < r.Rows(); i++ {
		if c.MatchesLHS(r, i) {
			n++
		}
	}
	return n
}

// Holds implements deps.Dependency.
func (c CFD) Holds(r *relation.Relation) bool {
	return deps.HoldsByViolations(c, r)
}

// Violations implements deps.Dependency. Following Fan et al.'s semantics,
// a violation is either (a) a single tuple matching t_p[X] whose Y values
// fail t_p[Y] — only possible with constant/predicate RHS cells — or (b) a
// pair of tuples matching t_p[X], equal on X, but unequal on Y.
func (c CFD) Violations(r *relation.Relation, limit int) []deps.Violation {
	var out []deps.Violation
	add := func(v deps.Violation) bool {
		out = append(out, v)
		return limit > 0 && len(out) >= limit
	}
	// Single-tuple check against RHS pattern constants.
	hasRHSPattern := false
	for k := range c.Y {
		if !c.Pattern[len(c.X)+k].IsWildcard() {
			hasRHSPattern = true
			break
		}
	}
	var matching []int
	for i := 0; i < r.Rows(); i++ {
		if !c.MatchesLHS(r, i) {
			continue
		}
		matching = append(matching, i)
		if hasRHSPattern && !c.matchesRHS(r, i) {
			if add(deps.Violation{Rows: []int{i}, Msg: "Y values fail the pattern tuple"}) {
				return out
			}
		}
	}
	// Pairwise check: group matching rows by X-values, groups numbered
	// in first-matching-row order.
	xCodes, card := r.GroupCodes(c.X)
	slot := make([]int, card)
	var groups [][]int
	for _, i := range matching {
		g := slot[xCodes[i]]
		if g == 0 {
			groups = append(groups, nil)
			g = len(groups)
			slot[xCodes[i]] = g
		}
		groups[g-1] = append(groups[g-1], i)
	}
	for _, rows := range groups {
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				if !equalOn(r, rows[a], rows[b], c.Y) {
					if add(deps.Pair(rows[a], rows[b], "match pattern, agree on X, differ on Y")) {
						return out
					}
				}
			}
		}
	}
	return out
}

func equalOn(r *relation.Relation, i, j int, cols []int) bool {
	for _, c := range cols {
		if !relation.SameKey(r.Value(i, c), r.Value(j, c)) {
			return false
		}
	}
	return true
}
