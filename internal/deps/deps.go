// Package deps defines the common contract every dependency class in the
// family tree implements: a dependency can be rendered, checked against a
// relation instance, and asked to enumerate its violations.
//
// The subpackages (fd, sfd, pfd, ..., dc, sd) implement the individual
// classes of the paper, one package per class, each with the special-case
// embeddings that witness the family-tree edges of Fig 1.
package deps

import (
	"fmt"
	"strings"

	"deptree/internal/relation"
)

// Dependency is a declared data-quality rule over a relation scheme.
type Dependency interface {
	// Kind returns the acronym of the dependency class ("FD", "CFD", ...).
	Kind() string
	// String renders the dependency in (approximately) the paper's notation.
	String() string
	// Holds reports whether the instance satisfies the dependency.
	Holds(r *relation.Relation) bool
	// Violations enumerates up to limit violations (limit <= 0: all).
	// Holds(r) is equivalent to len(Violations(r, 1)) == 0.
	Violations(r *relation.Relation, limit int) []Violation
}

// Lines renders one dependency per line via fmt.Sprint, nil for none:
// the form in which the registry prints a discovery run and a stream
// session its ruleset, so the two cannot drift apart.
func Lines[T fmt.Stringer](xs []T) []string {
	var out []string
	for _, x := range xs {
		out = append(out, fmt.Sprint(x))
	}
	return out
}

// Violation is a witness that an instance does not satisfy a dependency:
// the offending rows plus a human-readable explanation.
type Violation struct {
	// Rows are the offending row indices (usually a pair, sometimes one row
	// for constant patterns or a whole group).
	Rows []int
	// Msg explains the violation in terms of the dependency.
	Msg string
}

// String renders the violation.
func (v Violation) String() string {
	rows := make([]string, len(v.Rows))
	for i, r := range v.Rows {
		rows[i] = fmt.Sprintf("t%d", r+1)
	}
	return fmt.Sprintf("[%s] %s", strings.Join(rows, ","), v.Msg)
}

// Pair builds the common two-row violation.
func Pair(i, j int, format string, args ...any) Violation {
	return Violation{Rows: []int{i, j}, Msg: fmt.Sprintf(format, args...)}
}

// HoldsByViolations implements Holds for types whose Violations is the
// source of truth.
func HoldsByViolations(d Dependency, r *relation.Relation) bool {
	return len(d.Violations(r, 1)) == 0
}
