// Package dedup implements record matching / data deduplication with
// matching dependencies (paper Table 3, §3.7.4): MDs and CMDs identify
// tuple pairs referring to the same real-world entity; transitive closure
// over the matched pairs yields entity clusters.
//
// Two pair-enumeration strategies are provided: exhaustive all-pairs
// comparison, and blocking on a matching key (equal values on a chosen
// column after normalization) — the standard way to make O(n²) matching
// tractable, benchmarked against all-pairs in the ablation suite.
package dedup

import (
	"sort"
	"strings"

	"deptree/internal/deps/md"
	"deptree/internal/relation"
)

// Options configures deduplication.
type Options struct {
	// BlockingCol, when ≥ 0, restricts candidate pairs to tuples sharing a
	// normalized blocking key on this column. Use -1 for all pairs.
	BlockingCol int
	// KeyPrefix is the number of leading characters of the blocking value
	// used as the key (0 = whole value).
	KeyPrefix int
}

// Clusters groups row indices into entities: every pair matched by some MD
// is merged (union-find); singletons are omitted.
func Clusters(r *relation.Relation, mds []md.MD, opts Options) [][]int {
	parent := make([]int, r.Rows())
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
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, pair := range CandidatePairs(r, opts) {
		for _, m := range mds {
			if m.SimilarLHS(r, pair[0], pair[1]) {
				union(pair[0], pair[1])
				break
			}
		}
	}
	groups := map[int][]int{}
	for i := range parent {
		groups[find(i)] = append(groups[find(i)], i)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 1 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// CandidatePairs enumerates the pairs to compare: all pairs, or pairs
// sharing a blocking key.
func CandidatePairs(r *relation.Relation, opts Options) [][2]int {
	var out [][2]int
	if opts.BlockingCol < 0 {
		for i := 0; i < r.Rows(); i++ {
			for j := i + 1; j < r.Rows(); j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	blocks := map[string][]int{}
	for i := 0; i < r.Rows(); i++ {
		k := blockKey(r.Value(i, opts.BlockingCol), opts.KeyPrefix)
		blocks[k] = append(blocks[k], i)
	}
	keys := make([]string, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows := blocks[k]
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				out = append(out, [2]int{rows[i], rows[j]})
			}
		}
	}
	return out
}

// blockKey normalizes a value into a blocking key: lowercase, prefix.
func blockKey(v relation.Value, prefix int) string {
	s := strings.ToLower(v.String())
	if prefix > 0 && len(s) > prefix {
		s = s[:prefix]
	}
	return s
}

// Merge fuses each cluster into a single surviving tuple: per column, the
// most frequent non-null value wins (ties broken by first occurrence).
// The returned relation keeps unclustered tuples as-is, in row order of
// their first cluster member.
func Merge(r *relation.Relation, clusters [][]int) *relation.Relation {
	inCluster := map[int]int{} // row -> cluster index
	for ci, c := range clusters {
		for _, row := range c {
			inCluster[row] = ci
		}
	}
	out := relation.New(r.Name()+"_dedup", r.Schema())
	emitted := map[int]bool{}
	for i := 0; i < r.Rows(); i++ {
		ci, ok := inCluster[i]
		if !ok {
			t := make([]relation.Value, r.Cols())
			for c := 0; c < r.Cols(); c++ {
				t[c] = r.Value(i, c)
			}
			if err := out.Append(t); err != nil {
				panic(err)
			}
			continue
		}
		if emitted[ci] {
			continue
		}
		emitted[ci] = true
		t := make([]relation.Value, r.Cols())
		for c := 0; c < r.Cols(); c++ {
			t[c] = majorityValue(r, clusters[ci], c)
		}
		if err := out.Append(t); err != nil {
			panic(err)
		}
	}
	return out
}

// majorityValue returns the cluster's most frequent non-null value in col,
// ties broken by first occurrence, as its last occurrence; an all-null
// column yields the first row's value.
func majorityValue(r *relation.Relation, rows []int, col int) relation.Value {
	var d relation.Dict
	var counts []int
	var rep []relation.Value
	for _, row := range rows {
		v := r.Value(row, col)
		if v.IsNull() {
			continue
		}
		c := d.Code(v)
		if c == len(counts) {
			counts = append(counts, 0)
			rep = append(rep, v)
		}
		counts[c]++
		rep[c] = v
	}
	if len(counts) == 0 {
		return r.Value(rows[0], col)
	}
	// Codes run in first-occurrence order, so the first maximum wins ties.
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return rep[best]
}
