// Package pfd implements probabilistic functional dependencies X →_p Y
// (paper §2.2, [104]): per distinct X-value V_X, the probability that a
// tuple carries the majority Y-value,
//
//	P(X → Y, V_X) = |V_Y, V_X| / |V_X|,
//
// averaged over all distinct X-values,
//
//	P(X → Y, r) = Σ P(X → Y, V_X) / |D_X|.
//
// A PFD holds when P ≥ p. FDs are exactly the PFDs with p = 1, witnessing
// the FD → PFD edge of the family tree.
package pfd

import (
	"fmt"

	"deptree/internal/attrset"
	"deptree/internal/deps"
	"deptree/internal/deps/fd"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// PFD is a probabilistic functional dependency X →_p Y.
type PFD struct {
	// LHS and RHS are the attribute sets X and Y.
	LHS, RHS attrset.Set
	// MinProb is the threshold p ∈ (0, 1].
	MinProb float64
	// Schema names attributes for rendering.
	Schema *relation.Schema
}

// FromFD embeds an FD as the special-case PFD with p = 1 (Fig 1: FD → PFD).
func FromFD(f fd.FD) PFD {
	return PFD{LHS: f.LHS, RHS: f.RHS, MinProb: 1, Schema: f.Schema}
}

// Kind implements deps.Dependency.
func (p PFD) Kind() string { return "PFD" }

// String renders the PFD in the paper's notation.
func (p PFD) String() string {
	var names []string
	if p.Schema != nil {
		names = p.Schema.Names()
	}
	return fmt.Sprintf("%s ->_{p=%.3g} %s", p.LHS.Names(names), p.MinProb, p.RHS.Names(names))
}

// Probability computes P(X → Y, r): the mean over distinct X-values of the
// per-value majority fraction. An empty relation has probability 1.
func (p PFD) Probability(r *relation.Relation) float64 {
	xCodes, xCard := r.GroupCodes(p.LHS.Cols())
	yCodes, yCard := r.GroupCodes(p.RHS.Cols())
	var k Kernel
	return k.Probability(xCodes, xCard, yCodes, yCard)
}

// Kernel computes P(X → Y) from dictionary codes. It holds scratch arrays
// reused across calls, so one Kernel checks many candidates with no
// per-candidate allocation once its arrays have grown. A Kernel is
// single-goroutine state; the zero value is ready to use.
type Kernel struct {
	// start is the CSR offset array over X-classes, rows the row ids
	// grouped by X-class, counts a dense per-Y-code counter kept all
	// zero between classes.
	start, rows, counts []int
}

// Probability returns P(X → Y) for the rows encoded by x (dense codes in
// [0, xCard), every code occurring) and y (codes in [0, yCard)). Rows are
// grouped by X-class with a counting sort, each class's Y-codes are
// counted in a dense array, and the per-class majority fractions are
// summed in X-code order, so the result is bit-for-bit deterministic. No
// rows means probability 1.
func (k *Kernel) Probability(x []int, xCard int, y []int, yCard int) float64 {
	if len(x) == 0 {
		return 1
	}
	start := grow(&k.start, xCard+1)
	clear(start)
	for _, c := range x {
		start[c+1]++
	}
	for c := 1; c <= xCard; c++ {
		start[c] += start[c-1]
	}
	// Place rows with start[c] as class c's cursor; afterwards start[c]
	// is the end of class c, which is where class c+1 begins.
	rows := grow(&k.rows, len(x))
	for row, c := range x {
		rows[start[c]] = row
		start[c]++
	}
	counts := grow(&k.counts, yCard)
	sum, lo := 0.0, 0
	for c := 0; c < xCard; c++ {
		class := rows[lo:start[c]]
		lo = start[c]
		best := 0
		for _, row := range class {
			counts[y[row]]++
			best = max(best, counts[y[row]])
		}
		for _, row := range class {
			counts[y[row]] = 0
		}
		sum += float64(best) / float64(len(class))
	}
	return sum / float64(xCard)
}

// grow returns (*buf)[:n], reallocating when the capacity is short. A
// reallocated buffer is zeroed; a reused one keeps its contents.
func grow(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// PerValue computes P(X → Y, V_X) for the X-value of the given row.
func (p PFD) PerValue(r *relation.Relation, row int) float64 {
	xCodes, _ := r.GroupCodes(p.LHS.Cols())
	yCodes, _ := r.GroupCodes(p.RHS.Cols())
	target := xCodes[row]
	counts := make(map[int]int)
	size, max := 0, 0
	for i := range xCodes {
		if xCodes[i] != target {
			continue
		}
		size++
		counts[yCodes[i]]++
		if counts[yCodes[i]] > max {
			max = counts[yCodes[i]]
		}
	}
	return float64(max) / float64(size)
}

// Holds implements deps.Dependency: P(X → Y, r) ≥ p.
func (p PFD) Holds(r *relation.Relation) bool {
	return p.Probability(r) >= p.MinProb
}

// Violations implements deps.Dependency: when P < p, witnesses are the
// minority tuples — tuples whose Y-value is not the majority for their
// X-value.
func (p PFD) Violations(r *relation.Relation, limit int) []deps.Violation {
	prob := p.Probability(r)
	if prob >= p.MinProb {
		return nil
	}
	px := partition.Build(r, p.LHS)
	yCodes, yCard := r.GroupCodes(p.RHS.Cols())
	counts := make([]int, yCard)
	var out []deps.Violation
	for ci := 0; ci < px.NumClasses(); ci++ {
		class := px.Class(ci)
		best := 0
		for _, row := range class {
			counts[yCodes[row]]++
			best = max(best, counts[yCodes[row]])
		}
		// Ties go to the Y-value that appears first in the class.
		majority := -1
		for _, row := range class {
			if majority < 0 && counts[yCodes[row]] == best {
				majority = yCodes[row]
			}
			counts[yCodes[row]] = 0
		}
		for _, row := range class {
			if yCodes[row] != majority {
				out = append(out, deps.Violation{
					Rows: []int{int(row)},
					Msg:  fmt.Sprintf("minority Y-value for its X-group (P=%.3f < %.3f)", prob, p.MinProb),
				})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}
