// Package fairness implements the MVD-based interventional-fairness check
// and repair of Salimi et al. [80] (paper §2.6.4): a classifier's training
// data is interventionally fair w.r.t. a protected attribute S, admissible
// attributes A and outcome O when S and O are conditionally independent
// given A — which over the empirical distribution is the saturated
// conditional-independence statement captured by the MVD A ↠ S (with O in
// the complement). The repair reduces unfairness to a database-repair
// problem: insert the missing swap tuples so the MVD holds.
package fairness

import (
	"math"

	"deptree/internal/attrset"
	"deptree/internal/deps/mvd"
	"deptree/internal/relation"
)

// CheckCI reports whether the saturated conditional independence
// S ⫫ O | A holds empirically on the instance, via the MVD A ↠ S over
// the projection onto A ∪ S ∪ O (a multiset check on value combinations).
func CheckCI(r *relation.Relation, protected, outcome int, admissible []int) bool {
	cols := append(append([]int{}, admissible...), protected, outcome)
	proj := r.Project(cols)
	a := attrset.Full(len(admissible))
	s := attrset.Single(len(admissible)) // protected's position in proj
	m := mvd.MVD{LHS: a, RHS: s, NumAttrs: proj.Cols(), Schema: proj.Schema()}
	return m.Holds(proj)
}

// Repair inserts the minimal swap tuples making the MVD A ↠ S hold on the
// projection — the tuple-generating repair of [80] that removes the causal
// path from the protected attribute to the outcome. It returns a new
// relation with appended tuples (values outside A ∪ S ∪ O are copied from
// the donor tuple providing the outcome). Swap tuples are appended per
// admissible group in first-row order, each group's S and O values in
// first-appearance order.
func Repair(r *relation.Relation, protected, outcome int, admissible []int) *relation.Relation {
	out := r.Clone()
	groupOf, card := r.GroupCodes(admissible)
	sCodes, _ := r.Codes(protected)
	oCodes, _ := r.Codes(outcome)
	groups := make([][]int, card)
	for row, g := range groupOf {
		groups[g] = append(groups[g], row)
	}
	for _, rows := range groups {
		// Existing (S, O) combos and the first row per S and per O value.
		combos := map[[2]int]bool{}
		seenS, seenO := map[int]bool{}, map[int]bool{}
		var sReps, oReps []int
		for _, row := range rows {
			s, o := sCodes[row], oCodes[row]
			combos[[2]int{s, o}] = true
			if !seenS[s] {
				seenS[s] = true
				sReps = append(sReps, row)
			}
			if !seenO[o] {
				seenO[o] = true
				oReps = append(oReps, row)
			}
		}
		for _, sRow := range sReps {
			for _, oRow := range oReps {
				if combos[[2]int{sCodes[sRow], oCodes[oRow]}] {
					continue
				}
				// Insert the swap tuple: donor oRow with protected value
				// from sRow.
				t := r.Tuple(oRow)
				t[protected] = r.Value(sRow, protected)
				if err := out.Append(t); err != nil {
					panic(err)
				}
			}
		}
	}
	return out
}

// DisparityRatio measures outcome disparity: the maximum over protected
// groups of |P(O=o | S=s) − P(O=o)| for the most favorable outcome value
// o — a simple demographic-parity diagnostic used to show the repair's
// effect in the examples.
func DisparityRatio(r *relation.Relation, protected, outcome int) float64 {
	n := r.Rows()
	if n == 0 {
		return 0
	}
	sCodes, sCard := r.Codes(protected)
	oCodes, oCard := r.Codes(outcome)
	total := make([]int, sCard)
	outcomeCount := make([]int, oCard)
	joint := map[[2]int]int{}
	for i := 0; i < n; i++ {
		s, o := sCodes[i], oCodes[i]
		total[s]++
		outcomeCount[o]++
		joint[[2]int{s, o}]++
	}
	worst := 0.0
	for o, oc := range outcomeCount {
		base := float64(oc) / float64(n)
		for s, sc := range total {
			cond := float64(joint[[2]int{s, o}]) / float64(sc)
			worst = max(worst, math.Abs(cond-base))
		}
	}
	return worst
}
