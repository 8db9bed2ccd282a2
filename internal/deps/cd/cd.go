// Package cd implements comparable dependencies (paper §3.4, Song, Chen &
// Yu [91],[92]) for dataspaces: constraints over *synonym attribute pairs*
// from heterogeneous sources. A similarity function θ(A_i, A_j) matches two
// tuples if any of the three operator slots — (A_i,A_i), (A_i,A_j),
// (A_j,A_j) — evaluates within its threshold; a CD states that tuples
// similar w.r.t. all LHS similarity functions must be similar w.r.t. the
// RHS function.
//
// NEDs are the CDs whose similarity functions are defined on a single
// attribute (A_i = A_j), witnessing the NED → CD edge of the family tree.
package cd

import (
	"fmt"
	"math"
	"strings"

	"deptree/internal/deps"
	"deptree/internal/deps/ned"
	"deptree/internal/metric"
	"deptree/internal/relation"
)

// SimilarityFunc is θ(A_i, A_j): a pair of (possibly identical) synonym
// columns with distance thresholds for the ii, ij and jj combinations.
// A negative threshold disables a slot.
type SimilarityFunc struct {
	// I and J are the synonym columns (I == J for single-attribute
	// functions).
	I, J int
	// Metric measures value distance across both columns' domains.
	Metric metric.Metric
	// TII, TIJ, TJJ are the three slot thresholds.
	TII, TIJ, TJJ float64
}

// Theta builds a two-attribute similarity function with the default string
// metric.
func Theta(schema *relation.Schema, ai, aj string, tii, tij, tjj float64) SimilarityFunc {
	i, j := schema.MustIndex(ai), schema.MustIndex(aj)
	return SimilarityFunc{I: i, J: j, Metric: metric.ForKind(schema.Attr(i).Kind), TII: tii, TIJ: tij, TJJ: tjj}
}

// Single builds a one-attribute similarity function (the NED special case).
func Single(schema *relation.Schema, a string, t float64) SimilarityFunc {
	i := schema.MustIndex(a)
	return SimilarityFunc{I: i, J: i, Metric: metric.ForKind(schema.Attr(i).Kind), TII: t, TIJ: -1, TJJ: -1}
}

// Similar reports whether rows a and b are similar w.r.t. θ: at least one
// slot evaluates true (paper §3.4.1). Null values never match.
func (f SimilarityFunc) Similar(r *relation.Relation, a, b int) bool {
	check := func(col1, col2 int, t float64) bool {
		if t < 0 {
			return false
		}
		v1, v2 := r.Value(a, col1), r.Value(b, col2)
		if v1.IsNull() || v2.IsNull() {
			return false
		}
		d := f.Metric.Distance(v1, v2)
		if math.IsNaN(d) {
			return false
		}
		return d <= t
	}
	// Slot (i,i): both tuples on A_i. Slot (j,j): both on A_j.
	// Slot (i,j): either orientation across the synonym pair.
	return check(f.I, f.I, f.TII) ||
		check(f.J, f.J, f.TJJ) ||
		check(f.I, f.J, f.TIJ) || check(f.J, f.I, f.TIJ)
}

// String renders the similarity function.
func (f SimilarityFunc) String(names []string) string {
	n := func(c int) string {
		if names != nil && c < len(names) {
			return names[c]
		}
		return fmt.Sprintf("a%d", c)
	}
	if f.I == f.J {
		return fmt.Sprintf("θ(%s≈%.3g)", n(f.I), f.TII)
	}
	return fmt.Sprintf("θ(%s,%s)[%.3g,%.3g,%.3g]", n(f.I), n(f.J), f.TII, f.TIJ, f.TJJ)
}

// CD is a comparable dependency ⋀θ(A_i, A_j) → θ(B_i, B_j).
type CD struct {
	LHS []SimilarityFunc
	RHS SimilarityFunc
	// Schema names attributes for rendering.
	Schema *relation.Schema
}

// FromNED embeds an NED as a CD over single-attribute similarity functions
// (Fig 1: NED → CD).
func FromNED(n ned.NED) (CD, error) {
	if len(n.RHS) != 1 {
		return CD{}, fmt.Errorf("cd: CD has a single RHS similarity function, NED has %d", len(n.RHS))
	}
	c := CD{Schema: n.Schema}
	for _, t := range n.LHS {
		c.LHS = append(c.LHS, SimilarityFunc{I: t.Col, J: t.Col, Metric: t.Metric, TII: t.Threshold, TIJ: -1, TJJ: -1})
	}
	rt := n.RHS[0]
	c.RHS = SimilarityFunc{I: rt.Col, J: rt.Col, Metric: rt.Metric, TII: rt.Threshold, TIJ: -1, TJJ: -1}
	return c, nil
}

// Kind implements deps.Dependency.
func (c CD) Kind() string { return "CD" }

// String renders the CD.
func (c CD) String() string {
	var names []string
	if c.Schema != nil {
		names = c.Schema.Names()
	}
	parts := make([]string, len(c.LHS))
	for i, f := range c.LHS {
		parts[i] = f.String(names)
	}
	return fmt.Sprintf("%s -> %s", strings.Join(parts, " ∧ "), c.RHS.String(names))
}

// Holds implements deps.Dependency.
func (c CD) Holds(r *relation.Relation) bool {
	return deps.HoldsByViolations(c, r)
}

// Violations implements deps.Dependency: pairs similar on every LHS
// function but dissimilar on the RHS function.
func (c CD) Violations(r *relation.Relation, limit int) []deps.Violation {
	var out []deps.Violation
	var names []string
	if c.Schema != nil {
		names = c.Schema.Names()
	}
	for i := 0; i < r.Rows(); i++ {
	pairs:
		for j := i + 1; j < r.Rows(); j++ {
			for _, f := range c.LHS {
				if !f.Similar(r, i, j) {
					continue pairs
				}
			}
			if !c.RHS.Similar(r, i, j) {
				out = append(out, deps.Pair(i, j,
					"similar on LHS functions but not on %s", c.RHS.String(names)))
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// G3 computes the error measure used by CD discovery validation (§3.4.3):
// the minimum fraction of tuples to remove so the CD holds. Violating pairs
// form a graph; the measure is a minimum vertex cover, approximated greedily
// by removing highest-degree tuples, the lowest row first among equals
// (exact computation is NP-complete [91]).
func (c CD) G3(r *relation.Relation) float64 {
	if r.Rows() == 0 {
		return 0
	}
	adj := make(map[int]map[int]bool)
	for _, v := range c.Violations(r, 0) {
		i, j := v.Rows[0], v.Rows[1]
		if adj[i] == nil {
			adj[i] = map[int]bool{}
		}
		if adj[j] == nil {
			adj[j] = map[int]bool{}
		}
		adj[i][j] = true
		adj[j][i] = true
	}
	removed := 0
	for {
		best, deg := -1, 0
		for v, ns := range adj {
			if len(ns) > deg || len(ns) == deg && v < best {
				best, deg = v, len(ns)
			}
		}
		if best < 0 {
			break
		}
		removed++
		for n := range adj[best] {
			delete(adj[n], best)
			if len(adj[n]) == 0 {
				delete(adj, n)
			}
		}
		delete(adj, best)
	}
	return float64(removed) / float64(r.Rows())
}
