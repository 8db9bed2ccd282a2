// Package metric implements the similarity/distance metrics that the
// heterogeneous-data dependency family builds on (paper §3): edit distance
// and friends for text attributes, absolute difference for numerical
// attributes, and the fuzzy resemblance relations of FFDs (§3.6).
//
// A metric d satisfies non-negativity, identity of indiscernibles and
// symmetry (§3.3.1). Levenshtein additionally satisfies the triangle
// inequality; Jaro-Winkler similarity does not induce a metric and is
// exposed as a similarity score only.
package metric

import (
	"math"

	"deptree/internal/relation"
)

// Metric computes a distance between two values of one attribute. Distances
// are ≥ 0; NaN signals incomparable operands (e.g. nulls).
type Metric interface {
	// Distance returns d(a, b).
	Distance(a, b relation.Value) float64
	// Name identifies the metric in rendered dependencies.
	Name() string
}

// Equality is the discrete metric: 0 if the values are equal, 1 otherwise.
// Under Equality every similarity-based dependency degenerates to its
// equality-based special case, which is exactly how the family-tree edges
// into the heterogeneous branch are witnessed.
type Equality struct{}

// Distance implements Metric.
func (Equality) Distance(a, b relation.Value) float64 {
	if a.Equal(b) {
		return 0
	}
	return 1
}

// Name implements Metric.
func (Equality) Name() string { return "equality" }

// Absolute is |a−b| on numeric values, the default metric for numerical
// attributes (§3.3.1). Non-numeric operands yield NaN.
type Absolute struct{}

// Distance implements Metric.
func (Absolute) Distance(a, b relation.Value) float64 { return a.Distance(b) }

// Name implements Metric.
func (Absolute) Name() string { return "abs" }

// Levenshtein is the edit distance on string payloads: minimum number of
// insertions, deletions and substitutions. Non-string operands are rendered
// via Value.String first, so numeric columns can still be compared textually
// when a schema is dirty.
type Levenshtein struct{}

// Distance implements Metric.
func (Levenshtein) Distance(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return math.NaN()
	}
	return float64(EditDistance(a.String(), b.String()))
}

// Name implements Metric.
func (Levenshtein) Name() string { return "levenshtein" }

// EditDistance computes the Levenshtein distance between two strings over
// runes, using the classic two-row dynamic program.
func EditDistance(a, b string) int {
	return levenshtein([]rune(a), []rune(b), new(dpRows))
}

// dpRows are the rows of the edit distances' dynamic programs, kept
// between calls so that a table build allocates them once.
type dpRows [3][]int

// row returns row k with n cells, reusing its array when long enough.
func (d *dpRows) row(k, n int) []int {
	if cap(d[k]) < n {
		d[k] = make([]int, n)
	}
	return d[k][:n]
}

// runeDistance returns the rune-level distance behind m when m is
// Levenshtein or DamerauOSA, else nil: NewTable converts each class's
// value to runes once and reuses one dpRows.
func runeDistance(m Metric) func(ra, rb []rune, d *dpRows) int {
	switch m.(type) {
	case Levenshtein:
		return levenshtein
	case DamerauOSA:
		return osa
	}
	return nil
}

// levenshtein is EditDistance over runes. A common prefix or suffix costs
// no edit in some optimal alignment, so it is stripped before the
// program.
func levenshtein(ra, rb []rune, d *dpRows) int {
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev, cur := d.row(0, len(rb)+1), d.row(1, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// DamerauOSA is the optimal-string-alignment variant of Damerau-Levenshtein:
// edit distance with adjacent transpositions (each substring edited at most
// once). Useful for typo-shaped heterogeneity in record matching.
type DamerauOSA struct{}

// Distance implements Metric.
func (DamerauOSA) Distance(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return math.NaN()
	}
	return float64(OSADistance(a.String(), b.String()))
}

// Name implements Metric.
func (DamerauOSA) Name() string { return "damerau-osa" }

// OSADistance computes the optimal string alignment distance.
func OSADistance(a, b string) int {
	return osa([]rune(a), []rune(b), new(dpRows))
}

// osa is OSADistance over runes. A transposition reaches back two rows,
// so the program keeps three.
func osa(ra, rb []rune, d *dpRows) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	pp, prev, cur := d.row(0, len(rb)+1), d.row(1, len(rb)+1), d.row(2, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			v := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := pp[j-2] + 1; t < v {
					v = t
				}
			}
			cur[j] = v
		}
		pp, prev, cur = prev, cur, pp
	}
	return prev[len(rb)]
}

// QGramJaccard is 1 − Jaccard similarity of the q-gram multisets of the two
// strings, a cheap token-based distance in [0,1] commonly used for blocking
// in record matching.
type QGramJaccard struct {
	// Q is the gram length; 0 defaults to 2 (bigrams).
	Q int
}

// Distance implements Metric.
func (m QGramJaccard) Distance(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return math.NaN()
	}
	return 1 - JaccardQGrams(a.String(), b.String(), m.q())
}

// Name implements Metric.
func (m QGramJaccard) Name() string { return "qgram-jaccard" }

func (m QGramJaccard) q() int {
	if m.Q <= 0 {
		return 2
	}
	return m.Q
}

// JaccardQGrams computes |grams(a) ∩ grams(b)| / |grams(a) ∪ grams(b)| over
// q-gram sets. Two empty strings have similarity 1.
func JaccardQGrams(a, b string, q int) float64 {
	ga, gb := qgrams(a, q), qgrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

func qgrams(s string, q int) map[string]bool {
	out := make(map[string]bool)
	r := []rune(s)
	if len(r) == 0 {
		return out
	}
	if len(r) < q {
		out[string(r)] = true
		return out
	}
	for i := 0; i+q <= len(r); i++ {
		out[string(r[i:i+q])] = true
	}
	return out
}

// JaroWinkler returns the Jaro-Winkler similarity in [0,1] (1 = identical).
// It is a similarity, not a metric; use 1−sim as a dissimilarity score.
func JaroWinkler(a, b string) float64 {
	sim := jaro(a, b)
	// Winkler prefix boost, standard p=0.1 over at most 4 chars.
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return sim + float64(prefix)*0.1*(1-sim)
}

func jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(transpositions)/2)/m) / 3
}

// ForKind returns the library default metric for a value kind: Levenshtein
// for strings, Absolute for numerics.
func ForKind(k relation.Kind) Metric {
	if k == relation.KindString {
		return Levenshtein{}
	}
	return Absolute{}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
