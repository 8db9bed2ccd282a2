package od

import (
	"fmt"
	"strings"

	"deptree/internal/deps"
	"deptree/internal/relation"
)

// LexOD is a list-based (lexicographic) order dependency in the style the
// OD-discovery literature uses (Langer & Naumann [67], Szlichta et al.
// [99],[101]): X̄ orders ȳ lexicographically — sorting the relation by
// the marked list X̄ also sorts it by Ȳ. Contrast with the pointwise OD
// of this package, where every marked attribute must be ordered
// simultaneously; a single-attribute LexOD coincides with the pointwise
// OD, which the tests check.
type LexOD struct {
	LHS, RHS []Marked
	// Schema names attributes for rendering.
	Schema *relation.Schema
}

// Kind implements deps.Dependency.
func (o LexOD) Kind() string { return "OD" }

// String renders the LexOD in list notation.
func (o LexOD) String() string {
	var names []string
	if o.Schema != nil {
		names = o.Schema.Names()
	}
	render := func(ms []Marked) string {
		parts := make([]string, len(ms))
		for i, m := range ms {
			parts[i] = m.String(names)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	return fmt.Sprintf("%s ~> %s", render(o.LHS), render(o.RHS))
}

// lexCompare compares rows i and j under the marked list: the first
// non-tie decides, with descending marks inverting the comparison.
func lexCompare(r *relation.Relation, i, j int, ms []Marked) int {
	for _, m := range ms {
		cmp := r.Value(i, m.Col).Compare(r.Value(j, m.Col))
		if m.Desc {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp
		}
	}
	return 0
}

// stopCheckEvery is how many row pairs of the quadratic pair scan run
// between calls of HoldsPolling's poll.
const stopCheckEvery = 1024

// Holds implements deps.Dependency.
func (o LexOD) Holds(r *relation.Relation) bool {
	return deps.HoldsByViolations(o, r)
}

// HoldsPolling is Holds for a check that runs inside a stoppable task:
// the pair scan is quadratic, so poll is called every stopCheckEvery
// pairs and may unwind the task (engine.Abort) once the run has stopped.
func (o LexOD) HoldsPolling(r *relation.Relation, poll func()) bool {
	return len(o.violations(r, 1, poll)) == 0
}

// Violations implements deps.Dependency: ordered pairs with
// t_i ≺_X̄ t_j (strictly or tied) but t_i ≻_Ȳ t_j. Following the
// standard semantics, X̄-ties must not be Ȳ-inverted either, i.e.
// lexCompare(X̄) ≤ 0 must imply lexCompare(Ȳ) ≤ 0... ties on X̄ with
// strict Ȳ order in both directions would contradict antisymmetry, so
// the implemented rule is: X̄ ≤ 0 ⇒ Ȳ ≤ 0 evaluated on ordered pairs.
func (o LexOD) Violations(r *relation.Relation, limit int) []deps.Violation {
	return o.violations(r, limit, nil)
}

// violations is Violations with an optional poll, called every
// stopCheckEvery pairs.
func (o LexOD) violations(r *relation.Relation, limit int, poll func()) []deps.Violation {
	var out []deps.Violation
	steps := 0
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Rows(); j++ {
			if poll != nil {
				if steps++; steps%stopCheckEvery == 0 {
					poll()
				}
			}
			if i == j {
				continue
			}
			if lexCompare(r, i, j, o.LHS) <= 0 && lexCompare(r, i, j, o.RHS) > 0 {
				out = append(out, deps.Pair(i, j, "lexicographically X̄-ordered but Ȳ-inverted"))
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}
