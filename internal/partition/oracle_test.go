package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"deptree/internal/gen"
)

// This file retains the pre-CSR, map-based partition implementation as a
// reference oracle: every CSR operation is checked against it for exact
// (byte-identical) agreement, both under randomized property tests and
// under FuzzProductEquivalence.

// oracleFromCodes is the map-based stripped-partition build: group rows
// by code in a hash map, drop singletons, sort classes by first row.
func oracleFromCodes(codes []int) [][]int {
	groups := map[int][]int{}
	for row, c := range codes {
		groups[c] = append(groups[c], row)
	}
	var classes [][]int
	for _, g := range groups {
		if len(g) > 1 {
			sort.Ints(g)
			classes = append(classes, g)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}

// oracleProduct is the map-based TANE product: a probe map from the left
// operand, a group table keyed by (left class, right class), singleton
// stripping, and a final sort into first-row order.
func oracleProduct(p, q [][]int) [][]int {
	probe := map[int]int{}
	for ci, class := range p {
		for _, row := range class {
			probe[row] = ci
		}
	}
	groups := map[[2]int][]int{}
	for qi, class := range q {
		for _, row := range class {
			pc, ok := probe[row]
			if !ok {
				continue
			}
			key := [2]int{pc, qi}
			groups[key] = append(groups[key], row)
		}
	}
	var classes [][]int
	for _, g := range groups {
		if len(g) > 1 {
			sort.Ints(g)
			classes = append(classes, g)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}

// oracleG3 is the map-based g3: per class, count A-codes in a fresh map
// and charge everything but the majority.
func oracleG3(classes [][]int, codesA []int, n int) float64 {
	if n == 0 {
		return 0
	}
	violating := 0
	for _, class := range classes {
		counts := map[int]int{}
		best := 0
		for _, row := range class {
			counts[codesA[row]]++
			if counts[codesA[row]] > best {
				best = counts[codesA[row]]
			}
		}
		violating += len(class) - best
	}
	return float64(violating) / float64(n)
}

func covered(classes [][]int) int {
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	return total
}

// normalizeCodes remaps arbitrary ints to first-appearance codes, the
// contract of relation.Codes/GroupCodes, and returns the cardinality.
func normalizeCodes(raw []int) ([]int, int) {
	seen := map[int]int{}
	out := make([]int, len(raw))
	for i, v := range raw {
		c, ok := seen[v]
		if !ok {
			c = len(seen)
			seen[v] = c
		}
		out[i] = c
	}
	return out, len(seen)
}

func classesEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkProductAgainstOracle runs one CSR product (on the pooled arena,
// which sequential calls from one goroutine keep reusing, so arena-reset
// bugs surface across calls) and asserts byte-identical classes, the
// cardinality identity |π_{X∪Y}| = n − covered + classes, and agreement
// with the oracle's distinct-pair count.
func checkProductAgainstOracle(t *testing.T, codes1, codes2 []int) {
	t.Helper()
	c1, card1 := normalizeCodes(codes1)
	c2, card2 := normalizeCodes(codes2)
	n := len(c1)
	p, q := FromCodes(c1, card1), FromCodes(c2, card2)
	op, oq := oracleFromCodes(c1), oracleFromCodes(c2)
	if !classesEqual(p.Classes(), op) || !classesEqual(q.Classes(), oq) {
		t.Fatalf("FromCodes diverges from oracle:\n csr=%v\n map=%v", p.Classes(), op)
	}

	prod := p.Product(q)
	oracle := oracleProduct(op, oq)
	if !classesEqual(prod.Classes(), oracle) {
		t.Fatalf("product diverges from oracle:\n csr=%v\n map=%v\n x=%v y=%v", prod.Classes(), oracle, c1, c2)
	}
	if got, want := prod.Cardinality(), n-prod.Size()+prod.NumClasses(); got != want {
		t.Fatalf("cardinality identity broken: card=%d, n-covered+classes=%d", got, want)
	}
	distinct := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		distinct[[2]int{c1[i], c2[i]}] = true
	}
	if prod.Cardinality() != len(distinct) {
		t.Fatalf("card=%d, distinct (X,Y) pairs=%d", prod.Cardinality(), len(distinct))
	}
	if prod.Size() != covered(oracle) {
		t.Fatalf("size=%d, oracle covered=%d", prod.Size(), covered(oracle))
	}

	// G3 with every column of the pair as RHS, against the map oracle.
	for _, codesA := range [][]int{c1, c2} {
		if got, want := prod.G3(codesA), oracleG3(oracle, codesA, n); got != want {
			t.Fatalf("g3 diverges: csr=%v map=%v", got, want)
		}
	}
}

// TestProductOracleProperty is the satellite property test: random code
// vectors through the full CSR pipeline vs the retained map oracle.
func TestProductOracleProperty(t *testing.T) {
	f := func(raw1, raw2 []uint8, nCap uint8) bool {
		n := int(nCap)%100 + 1
		c1 := make([]int, n)
		c2 := make([]int, n)
		for i := 0; i < n; i++ {
			if len(raw1) > 0 {
				c1[i] = int(raw1[i%len(raw1)]) % 7
			}
			if len(raw2) > 0 {
				c2[i] = int(raw2[i%len(raw2)]) % 5
			}
		}
		checkProductAgainstOracle(t, c1, c2)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestProductOracleSkewed drives the distributions the fast/slow emit
// paths care about: key-like (all singletons), constant (one class),
// block-diagonal and interleaved classes.
func TestProductOracleSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func(n int) []int{
		"key":      func(n int) []int { return seq(n) },
		"constant": func(n int) []int { return make([]int, n) },
		"halves": func(n int) []int {
			c := make([]int, n)
			for i := range c {
				c[i] = i * 2 / n
			}
			return c
		},
		"parity": func(n int) []int {
			c := make([]int, n)
			for i := range c {
				c[i] = i % 2
			}
			return c
		},
		"random": func(n int) []int {
			c := make([]int, n)
			for i := range c {
				c[i] = rng.Intn(4)
			}
			return c
		},
	}
	for _, n := range []int{0, 1, 2, 3, 17, 64} {
		for name1, g1 := range gens {
			for name2, g2 := range gens {
				t.Run(fmt.Sprintf("n=%d/%s-%s", n, name1, name2), func(t *testing.T) {
					checkProductAgainstOracle(t, g1(n), g2(n))
				})
			}
		}
	}
}

func seq(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return c
}

// FuzzProductEquivalence fuzzes the CSR product against the map oracle.
// The input encodes two code columns of equal length; the corpus is
// seeded with column pairs of the paper's Table 1 hotel relation, whose
// near-duplicate rows exercise skewed class shapes.
func FuzzProductEquivalence(f *testing.F) {
	r := gen.Table1()
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 4}} {
		codes1, _ := r.Codes(pair[0])
		codes2, _ := r.Codes(pair[1])
		f.Add(encodeCodes(codes1, codes2))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		c1 := make([]int, n)
		c2 := make([]int, n)
		for i := 0; i < n; i++ {
			c1[i] = int(data[i])
			c2[i] = int(data[n+i])
		}
		checkProductAgainstOracle(t, c1, c2)
	})
}

func encodeCodes(c1, c2 []int) []byte {
	var b bytes.Buffer
	for _, c := range c1 {
		b.WriteByte(byte(c))
	}
	for _, c := range c2 {
		b.WriteByte(byte(c))
	}
	return b.Bytes()
}

// TestViolatingPairsMatchesNaive pins the exact pair stream (order and
// content) of the grouped ViolatingPairs against the naive nested scan,
// limited and unlimited.
func TestViolatingPairsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		cx := make([]int, n)
		ca := make([]int, n)
		for i := 0; i < n; i++ {
			cx[i] = rng.Intn(3)
			ca[i] = rng.Intn(3)
		}
		codes, card := normalizeCodes(cx)
		p := FromCodes(codes, card)
		naive := naivePairs(p, ca)
		for _, limit := range []int{0, 1, 2, 5, len(naive), len(naive) + 3} {
			got := p.ViolatingPairs(ca, limit)
			want := naive
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d limit %d: %d pairs, want %d", trial, limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d limit %d: pair[%d]=%v, want %v", trial, limit, i, got[i], want[i])
				}
			}
		}
	}
}

func naivePairs(p *Partition, codesA []int) [][2]int {
	var out [][2]int
	for _, class := range p.Classes() {
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				if codesA[class[i]] != codesA[class[j]] {
					out = append(out, [2]int{class[i], class[j]})
				}
			}
		}
	}
	return out
}
