// Package normalize implements schema normalization (paper Table 3, §1.1,
// §2.6.4): testing for 3NF/BCNF under FDs and 4NF under MVDs, 3NF
// synthesis from a minimal cover, and lossless BCNF/4NF decomposition —
// the original use of the dependency family before its data-quality
// revival.
package normalize

import (
	"encoding/binary"
	"slices"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/deps/mvd"
	"deptree/internal/relation"
)

// IsBCNF reports whether a scheme with n attributes is in Boyce-Codd
// normal form under the FDs: every non-trivial FD's LHS is a superkey.
func IsBCNF(n int, fds []fd.FD) bool {
	_, ok := bcnfViolator(n, fds)
	return !ok
}

func bcnfViolator(n int, fds []fd.FD) (fd.FD, bool) {
	for _, f := range fds {
		if f.RHS.SubsetOf(f.LHS) {
			continue
		}
		if !fd.IsSuperkey(f.LHS, n, fds) {
			return f, true
		}
	}
	return fd.FD{}, false
}

// Is3NF reports whether the scheme is in third normal form: for every
// non-trivial FD, the LHS is a superkey or every RHS attribute is prime
// (member of some candidate key).
func Is3NF(n int, fds []fd.FD) bool {
	keys := fd.CandidateKeys(n, fds)
	var prime attrset.Set
	for _, k := range keys {
		prime = prime.Union(k)
	}
	for _, f := range fds {
		extra := f.RHS.Minus(f.LHS)
		if extra.IsEmpty() {
			continue
		}
		if fd.IsSuperkey(f.LHS, n, fds) {
			continue
		}
		if !extra.SubsetOf(prime) {
			return false
		}
	}
	return true
}

// Synthesize3NF runs the classical 3NF synthesis algorithm: one scheme per
// minimal-cover FD (grouped by LHS), plus a key scheme if no scheme
// contains a candidate key. The result is dependency preserving and
// lossless.
func Synthesize3NF(n int, fds []fd.FD) []attrset.Set {
	cover := fd.MinimalCover(fds)
	// Group by LHS.
	byLHS := map[attrset.Set]attrset.Set{}
	for _, f := range cover {
		byLHS[f.LHS] = byLHS[f.LHS].Union(f.LHS).Union(f.RHS)
	}
	var schemes []attrset.Set
	for _, s := range byLHS {
		schemes = append(schemes, s)
	}
	// Drop schemes contained in others.
	sort.Slice(schemes, func(i, j int) bool { return schemes[i].Len() > schemes[j].Len() })
	var kept []attrset.Set
	for _, s := range schemes {
		redundant := false
		for _, k := range kept {
			if s.SubsetOf(k) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, s)
		}
	}
	// Ensure some scheme contains a candidate key.
	keys := fd.CandidateKeys(n, fds)
	hasKey := false
	for _, s := range kept {
		for _, k := range keys {
			if k.SubsetOf(s) {
				hasKey = true
				break
			}
		}
	}
	if !hasKey && len(keys) > 0 {
		kept = append(kept, keys[0])
	}
	// Cover attributes not mentioned by any FD.
	var covered attrset.Set
	for _, s := range kept {
		covered = covered.Union(s)
	}
	if rest := attrset.Full(n).Minus(covered); !rest.IsEmpty() {
		kept = append(kept, rest)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	return kept
}

// DecomposeBCNF performs the classical BCNF decomposition: repeatedly
// split a scheme on a violating FD X → Y into (X ∪ Y) and (R − Y + X).
// The decomposition is lossless; dependency preservation is not guaranteed
// (the known BCNF trade-off).
func DecomposeBCNF(n int, fds []fd.FD) []attrset.Set {
	var result []attrset.Set
	var recurse func(scheme attrset.Set)
	recurse = func(scheme attrset.Set) {
		local := projectFDs(scheme, fds)
		for _, f := range local {
			rhs := f.RHS.Minus(f.LHS).Intersect(scheme)
			if rhs.IsEmpty() {
				continue
			}
			// Violates BCNF within the scheme?
			if closureWithin(f.LHS, scheme, local) != scheme {
				left := f.LHS.Union(rhs)
				right := scheme.Minus(rhs)
				recurse(left)
				recurse(right)
				return
			}
		}
		result = append(result, scheme)
	}
	recurse(attrset.Full(n))
	sort.Slice(result, func(i, j int) bool { return result[i] < result[j] })
	// Dedup.
	var out []attrset.Set
	for i, s := range result {
		if i == 0 || s != result[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// projectFDs computes the FDs of the full set that apply within a
// sub-scheme: X → A for X, A ⊆ scheme with A ∈ X+ (restricted projection
// via closures; exponential in |scheme| in the worst case, as the problem
// demands).
func projectFDs(scheme attrset.Set, fds []fd.FD) []fd.FD {
	var out []fd.FD
	scheme.Subsets(func(x attrset.Set) {
		if x.IsEmpty() || x == scheme {
			return
		}
		closure := fd.Closure(x, fds).Intersect(scheme).Minus(x)
		if !closure.IsEmpty() {
			out = append(out, fd.FD{LHS: x, RHS: closure})
		}
	})
	return out
}

// closureWithin computes X+ restricted to the scheme under local FDs.
func closureWithin(x, scheme attrset.Set, local []fd.FD) attrset.Set {
	return fd.Closure(x, local).Intersect(scheme)
}

// Is4NF reports whether the scheme is in fourth normal form with respect
// to the given MVDs and FDs: every non-trivial MVD's LHS is a superkey.
// (Trivial MVDs: Y ⊆ X or X ∪ Y = R.)
func Is4NF(n int, mvds []mvd.MVD, fds []fd.FD) bool {
	full := attrset.Full(n)
	for _, m := range mvds {
		if m.RHS.SubsetOf(m.LHS) || m.LHS.Union(m.RHS) == full {
			continue
		}
		if !fd.IsSuperkey(m.LHS, n, fds) {
			return false
		}
	}
	return true
}

// Decompose4NF splits the scheme on non-trivial MVDs whose LHS is not a
// superkey: R becomes (X ∪ Y) and (R − Y). Only the given MVDs are
// considered (full MVD inference is undecidable to axiomatize finitely
// with FDs alone in the general dependency setting; the provided set is
// treated as the discovered/declared constraints, as in practice).
func Decompose4NF(n int, mvds []mvd.MVD, fds []fd.FD) []attrset.Set {
	var result []attrset.Set
	var recurse func(scheme attrset.Set)
	recurse = func(scheme attrset.Set) {
		for _, m := range mvds {
			if !m.LHS.SubsetOf(scheme) {
				continue
			}
			y := m.RHS.Intersect(scheme).Minus(m.LHS)
			if y.IsEmpty() || m.LHS.Union(y) == scheme {
				continue
			}
			if !fd.IsSuperkey(m.LHS, n, fds) {
				recurse(m.LHS.Union(y))
				recurse(scheme.Minus(y))
				return
			}
		}
		result = append(result, scheme)
	}
	recurse(attrset.Full(n))
	sort.Slice(result, func(i, j int) bool { return result[i] < result[j] })
	var out []attrset.Set
	for i, s := range result {
		if i == 0 || s != result[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// LosslessJoin verifies a decomposition empirically on an instance: the
// natural join of the projections must reproduce exactly the original
// tuple set (no spurious tuples) — the correctness criterion of MVD-based
// decomposition (§2.6.1). Tuples are joined on the columns' dictionary
// codes.
func LosslessJoin(r *relation.Relation, schemes []attrset.Set) bool {
	n := r.Cols()
	codes := make([][]int, n)
	for c := range codes {
		codes[c], _ = r.Codes(c)
	}
	// A joined tuple holds one code per column, -1 where no projection
	// has bound the column yet.
	empty := make([]int, n)
	for c := range empty {
		empty[c] = -1
	}
	current := [][]int{empty}
	for _, scheme := range schemes {
		cols := scheme.Cols()
		// Distinct projected tuples, each as its first row.
		groupOf, card := r.GroupCodes(cols)
		seen := make([]bool, card)
		var proj []int
		for row, g := range groupOf {
			if !seen[g] {
				seen[g] = true
				proj = append(proj, row)
			}
		}
		var next [][]int
		for _, t := range current {
			for _, row := range proj {
				if joinable(t, codes, cols, row) {
					merged := append([]int(nil), t...)
					for _, c := range cols {
						merged[c] = codes[c][row]
					}
					next = append(next, merged)
				}
			}
		}
		current = next
	}
	// Every original tuple survives the join, so the join is exact when
	// it has no more distinct complete tuples than the original.
	joined := map[string]bool{}
	for _, t := range current {
		if !slices.Contains(t, -1) {
			joined[tupleKey(t)] = true
		}
	}
	all := make([]int, n)
	for c := range all {
		all[c] = c
	}
	_, distinct := r.GroupCodes(all)
	return len(joined) == distinct
}

// joinable reports whether row agrees with the joined tuple t on every
// column of cols that t has bound.
func joinable(t []int, codes [][]int, cols []int, row int) bool {
	for _, c := range cols {
		if t[c] >= 0 && t[c] != codes[c][row] {
			return false
		}
	}
	return true
}

// tupleKey is a code tuple's fixed-width byte form, 4 bytes per column.
func tupleKey(t []int) string {
	b := make([]byte, 0, 4*len(t))
	for _, c := range t {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	return string(b)
}
