package pfddisc

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/deps/pfd"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// oracleProbability is the map-based P(X → Y, r) that the dictionary-code
// kernel replaced, kept as the differential oracle. It groups rows by
// Value.Key() tuple strings (length-prefixed, so no payload can forge a
// column boundary), counts (X, Y) pairs in a map and sums the per-class
// majority fractions in map order — equal to the kernel up to float
// summation order.
func oracleProbability(r *relation.Relation, x, y attrset.Set) float64 {
	if r.Rows() == 0 {
		return 1
	}
	xCodes, xCard := keyCodes(r, x.Cols())
	yCodes, _ := keyCodes(r, y.Cols())
	type key struct{ x, y int }
	counts := make(map[key]int)
	sizes := make(map[int]int)
	for row := range xCodes {
		counts[key{xCodes[row], yCodes[row]}]++
		sizes[xCodes[row]]++
	}
	maxes := make(map[int]int)
	for k, c := range counts {
		if c > maxes[k.x] {
			maxes[k.x] = c
		}
	}
	sum := 0.0
	for x, size := range sizes {
		sum += float64(maxes[x]) / float64(size)
	}
	return sum / float64(xCard)
}

func keyCodes(r *relation.Relation, cols []int) ([]int, int) {
	codes := make([]int, r.Rows())
	dict := make(map[string]int)
	var b strings.Builder
	for i := range codes {
		b.Reset()
		for _, c := range cols {
			k := r.Value(i, c).Key()
			b.WriteString(strconv.Itoa(len(k)))
			b.WriteByte(':')
			b.WriteString(k)
		}
		c, ok := dict[b.String()]
		if !ok {
			c = len(dict)
			dict[b.String()] = c
		}
		codes[i] = c
	}
	return codes, len(dict)
}

// randomRelation draws a relation with a string, a float and an int
// column over tiny domains: nulls, NaN, ±0 and duplicate rows are all
// frequent, so classes collide and majorities tie.
func randomRelation(rng *rand.Rand, rows int) *relation.Relation {
	s := relation.NewSchema(
		relation.Attribute{Name: "s", Kind: relation.KindString},
		relation.Attribute{Name: "f", Kind: relation.KindFloat},
		relation.Attribute{Name: "i", Kind: relation.KindInt},
		relation.Attribute{Name: "t", Kind: relation.KindString},
	)
	floats := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), 0, math.Copysign(0, -1), 1.5, 2}
	r := relation.New("random", s)
	for r.Rows() < rows {
		if r.Rows() > 0 && rng.Intn(4) == 0 {
			if err := r.Append(r.Tuple(rng.Intn(r.Rows()))); err != nil {
				panic(err)
			}
			continue
		}
		row := []relation.Value{
			relation.String(string(rune('a' + rng.Intn(3)))),
			relation.Float(floats[rng.Intn(len(floats))]),
			relation.Int(rng.Intn(3)),
			relation.String(strconv.Itoa(rng.Intn(5))),
		}
		for c := range row {
			if rng.Intn(6) == 0 {
				row[c] = relation.Null(s.Attr(c).Kind)
			}
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// differentialRelations are the shapes the kernel is checked on: hotel
// relations with variety, errors and duplicates, and random relations.
func differentialRelations(t *testing.T) []*relation.Relation {
	t.Helper()
	rels := []*relation.Relation{
		gen.Table5(),
		gen.Hotels(gen.HotelConfig{Rows: 300, Seed: 7, ErrorRate: 0.02, VarietyRate: 0.05, DuplicateRate: 0.1}),
		gen.Hotels(gen.HotelConfig{Rows: 120, Seed: 3, ErrorRate: 0.2, VarietyRate: 0.3, DuplicateRate: 0.3}),
	}
	rng := rand.New(rand.NewSource(17))
	for _, rows := range []int{1, 2, 9, 60, 250} {
		rels = append(rels, randomRelation(rng, rows))
	}
	return rels
}

// candidates lists every (X, A) with |X| ≤ maxLHS and A ∉ X.
func candidates(n, maxLHS int) [][2]attrset.Set {
	var out [][2]attrset.Set
	level := attrset.Singletons(n)
	for size := 1; size <= maxLHS && len(level) > 0; size++ {
		for _, x := range level {
			for a := 0; a < n; a++ {
				if !x.Has(a) {
					out = append(out, [2]attrset.Set{x, attrset.Single(a)})
				}
			}
		}
		level = attrset.NextLevel(level)
	}
	return out
}

// TestKernelMatchesOracle: PFD.Probability and the per-run encoding path
// pfddisc uses (column codes composed for |X| = 2) both agree with the
// oracle within 1e-12 on every candidate.
func TestKernelMatchesOracle(t *testing.T) {
	for ri, r := range differentialRelations(t) {
		enc := encodeColumns(r)
		var k pfd.Kernel
		for _, c := range candidates(r.Cols(), 2) {
			want := oracleProbability(r, c[0], c[1])
			p := pfd.PFD{LHS: c[0], RHS: c[1], Schema: r.Schema()}
			if got := p.Probability(r); math.Abs(got-want) > 1e-12 {
				t.Fatalf("relation %d %v: Probability = %v, oracle %v", ri, p, got, want)
			}
			x, xCard := enc.codes[c[0].First()], enc.cards[c[0].First()]
			if c[0].Len() > 1 {
				x, xCard = (&lhsCodes{x: c[0]}).get(enc)
			}
			a := c[1].First()
			if got := k.Probability(x, xCard, enc.codes[a], enc.cards[a]); math.Abs(got-want) > 1e-12 {
				t.Fatalf("relation %d %v: kernel on run codes = %v, oracle %v", ri, p, got, want)
			}
		}
	}
}

// TestDiscoverMatchesOracle: for MaxLHS 1 and 2 and workers 1 and 4, a
// candidate is discovered exactly when the oracle's probability meets the
// threshold (a probability within 1e-12 of the threshold may go either
// way; the kernel check above bounds it).
func TestDiscoverMatchesOracle(t *testing.T) {
	for ri, r := range differentialRelations(t) {
		for _, maxLHS := range []int{1, 2} {
			cands := candidates(r.Cols(), maxLHS)
			probs := make([]float64, len(cands))
			for i, c := range cands {
				probs[i] = oracleProbability(r, c[0], c[1])
			}
			for _, minProb := range []float64{0.5, 0.75, 0.9, 1} {
				for _, workers := range []int{1, 4} {
					got := map[[2]attrset.Set]bool{}
					for _, p := range Discover(r, Options{MinProb: minProb, MaxLHS: maxLHS, Exec: engine.Exec{Workers: workers}}) {
						got[[2]attrset.Set{p.LHS, p.RHS}] = true
					}
					for i, c := range cands {
						if math.Abs(probs[i]-minProb) <= 1e-12 {
							continue
						}
						if want := probs[i] >= minProb; got[c] != want {
							t.Fatalf("relation %d MaxLHS %d p=%v workers %d: %v→%v discovered=%v, oracle P=%v",
								ri, maxLHS, minProb, workers, c[0], c[1], got[c], probs[i])
						}
					}
				}
			}
		}
	}
}

// TestMultiSourceMatchesOracle: the multi-source merge over restricted
// codes decides like the oracle run on each source's sub-relation.
func TestMultiSourceMatchesOracle(t *testing.T) {
	for ri, r := range differentialRelations(t) {
		for src := 0; src < r.Cols(); src++ {
			srcCodes, srcCard := keyCodes(r, []int{src})
			subs := make([]*relation.Relation, srcCard)
			for s := range subs {
				subs[s] = r.Select(func(row int) bool { return srcCodes[row] == s })
			}
			for _, minProb := range []float64{0.6, 0.9} {
				got := map[[2]attrset.Set]bool{}
				for _, p := range DiscoverMultiSource(r, src, Options{MinProb: minProb}) {
					got[[2]attrset.Set{p.LHS, p.RHS}] = true
				}
				for x := 0; x < r.Cols(); x++ {
					for a := 0; a < r.Cols(); a++ {
						if x == src || a == src || a == x {
							continue
						}
						probs := make([]SourceProbability, len(subs))
						for s, sub := range subs {
							probs[s] = SourceProbability{Rows: sub.Rows(), Prob: oracleProbability(sub, attrset.Single(x), attrset.Single(a))}
						}
						merged := MergeSources(probs)
						if math.Abs(merged-minProb) <= 1e-12 {
							continue
						}
						c := [2]attrset.Set{attrset.Single(x), attrset.Single(a)}
						if want := merged >= minProb; got[c] != want {
							t.Fatalf("relation %d source %d p=%v: %d→%d discovered=%v, oracle merged P=%v",
								ri, src, minProb, x, a, got[c], merged)
						}
					}
				}
			}
		}
	}
}
