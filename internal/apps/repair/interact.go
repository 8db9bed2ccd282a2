package repair

import (
	"deptree/internal/deps/fd"
	"deptree/internal/deps/md"
	"deptree/internal/relation"
)

// InteractiveClean interleaves record matching with data repairing, after
// Fan et al. [38],[41] (paper §3.7.4): matching dependencies identify the
// RHS cells of similar tuples (unifying them to the cluster majority,
// global frequency breaking ties), and FD repairing fixes the equivalence
// classes the identifications create. Each pass can enable the other —
// matching makes LHS values equal so FDs fire; repairs make tuples similar
// so MDs fire — and the loop runs to a fixpoint or the round budget.
func InteractiveClean(r *relation.Relation, mds []md.MD, fds []fd.FD, maxRounds int) Result {
	out := r.Clone()
	var changes []Change
	if maxRounds <= 0 {
		maxRounds = 5
	}
	for round := 0; round < maxRounds; round++ {
		dirty := false
		// Matching pass: unify RHS cells of MD-similar clusters.
		for _, m := range mds {
			parent := make([]int, out.Rows())
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(x int) int {
				for parent[x] != x {
					parent[x] = parent[parent[x]]
					x = parent[x]
				}
				return x
			}
			for i := 0; i < out.Rows(); i++ {
				for j := i + 1; j < out.Rows(); j++ {
					if m.SimilarLHS(out, i, j) {
						ri, rj := find(i), find(j)
						if ri != rj {
							parent[rj] = ri
						}
					}
				}
			}
			clusters := map[int][]int{}
			for i := range parent {
				clusters[find(i)] = append(clusters[find(i)], i)
			}
			for _, cluster := range sortedClusters(clusters) {
				if len(cluster) < 2 {
					continue
				}
				for _, col := range m.RHS {
					target, ok := preferredValue(out, cluster, col)
					if !ok {
						continue
					}
					for _, row := range cluster {
						if !relation.SameKey(out.Value(row, col), target) {
							changes = append(changes, Change{Row: row, Col: col, Old: out.Value(row, col), New: target})
							out.SetValue(row, col, target)
							dirty = true
						}
					}
				}
			}
		}
		// Repairing pass.
		res := FDRepair(out, fds)
		if len(res.Changes) > 0 {
			dirty = true
			changes = append(changes, res.Changes...)
			out = res.Repaired
		}
		if !dirty {
			break
		}
	}
	return Result{Repaired: out, Changes: changes}
}

// sortedClusters returns clusters ordered by smallest member for
// deterministic output.
func sortedClusters(m map[int][]int) [][]int {
	out := make([][]int, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0] < out[j-1][0]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// preferredValue picks the identification target for a cluster's column:
// the cluster value with the highest global frequency in that column
// (non-null), ties broken by in-cluster frequency then first occurrence.
// The target is the cluster's last occurrence of the chosen value.
func preferredValue(r *relation.Relation, cluster []int, col int) (relation.Value, bool) {
	codes, card := r.Codes(col)
	global := make([]int, card)
	for row, code := range codes {
		if !r.Value(row, col).IsNull() {
			global[code]++
		}
	}
	local := make([]int, card)
	last := make([]int, card)
	for _, row := range cluster {
		if r.Value(row, col).IsNull() {
			continue
		}
		code := codes[row]
		local[code]++
		last[code] = row
	}
	// Visit codes in first-occurrence order; a later code must win
	// strictly.
	best := -1
	for _, row := range cluster {
		code := codes[row]
		if local[code] == 0 {
			continue
		}
		if best < 0 || global[code] > global[best] ||
			(global[code] == global[best] && local[code] > local[best]) {
			best = code
		}
	}
	if best < 0 {
		return relation.Value{}, false
	}
	return r.Value(last[best], col), true
}
