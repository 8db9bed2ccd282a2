// Package impute implements missing-value imputation with neighborhood and
// differential dependencies (paper Table 3, §3.2.4, §3.3.4): the
// P-neighborhood method of Bassée & Wijsen [4] predicts a target value
// from the tuples close on the predictor attributes, and the
// similarity-rule enrichment of Song et al. [95],[96] widens the candidate
// pool through DD-compatible neighbors.
package impute

import (
	"deptree/internal/deps/dd"
	"deptree/internal/deps/ned"
	"deptree/internal/relation"
)

// PNeighborhood fills the target column of rows where it is null, using
// the NED's LHS predicate to find neighbors: rows agreeing with the
// incomplete row on the predicate vote with their target values (majority
// of non-null values). It returns the filled relation and the number of
// cells imputed; rows without neighbors stay null.
func PNeighborhood(r *relation.Relation, n ned.NED, target int) (*relation.Relation, int) {
	out := r.Clone()
	filled := 0
	for i := 0; i < r.Rows(); i++ {
		if !r.Value(i, target).IsNull() {
			continue
		}
		var b ballot
		for j := 0; j < r.Rows(); j++ {
			if i == j || r.Value(j, target).IsNull() {
				continue
			}
			if n.LHS.Agree(r, i, j) {
				b.vote(r.Value(j, target))
			}
		}
		if v, ok := b.winner(); ok {
			out.SetValue(i, target, v)
			filled++
		}
	}
	return out, filled
}

// DDEnriched fills nulls like PNeighborhood but gathers candidates via a
// DD's LHS pattern (which may include "dissimilar" semantics) — the
// extensive-similarity-neighbors idea of [96]: when strict neighbors are
// absent, differential-function-compatible tuples still provide
// candidates.
func DDEnriched(r *relation.Relation, d dd.DD, target int) (*relation.Relation, int) {
	out := r.Clone()
	filled := 0
	for i := 0; i < r.Rows(); i++ {
		if !r.Value(i, target).IsNull() {
			continue
		}
		var b ballot
		for j := 0; j < r.Rows(); j++ {
			if i == j || r.Value(j, target).IsNull() {
				continue
			}
			if d.LHS.Compatible(r, i, j) {
				b.vote(r.Value(j, target))
			}
		}
		if v, ok := b.winner(); ok {
			out.SetValue(i, target, v)
			filled++
		}
	}
	return out, filled
}

// ballot tallies the neighbour votes for one imputed cell.
type ballot struct {
	dict   relation.Dict
	counts []int
	// rep is each code's last vote.
	rep []relation.Value
}

func (b *ballot) vote(v relation.Value) {
	c := b.dict.Code(v)
	if c == len(b.counts) {
		b.counts = append(b.counts, 0)
		b.rep = append(b.rep, v)
	}
	b.counts[c]++
	b.rep[c] = v
}

// winner returns the most voted value, ties broken by the smallest
// Value.Key; ok is false when nobody voted.
func (b *ballot) winner() (relation.Value, bool) {
	best, bestKey := -1, ""
	for c, n := range b.counts {
		switch {
		case best < 0 || n > b.counts[best]:
			best, bestKey = c, ""
		case n == b.counts[best]:
			if bestKey == "" {
				bestKey = b.rep[best].Key()
			}
			if k := b.rep[c].Key(); k < bestKey {
				best, bestKey = c, k
			}
		}
	}
	if best < 0 {
		return relation.Value{}, false
	}
	return b.rep[best], true
}
