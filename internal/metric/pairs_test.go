package metric_test

import (
	"math"
	"sort"
	"testing"

	"deptree/internal/deps/cd"
	"deptree/internal/deps/dd"
	"deptree/internal/deps/md"
	"deptree/internal/deps/ned"
	"deptree/internal/metric"
	"deptree/internal/relation"
)

// pairRelation decodes fuzz bytes into a small relation over the cells
// where Value.Equal and dictionary classes part ways: NaN, −0 and +0,
// nulls of each kind, repeated rows, and string payloads shared by both
// string columns. Columns: s1, s2 (strings), x (float), n (int).
func pairRelation(data []byte) *relation.Relation {
	strs := []relation.Value{relation.Null(relation.KindString), relation.String(""), relation.String("a"),
		relation.String("ab"), relation.String("ba"), relation.String("abc"), relation.String("b")}
	floats := []relation.Value{relation.Null(relation.KindFloat), relation.Float(math.NaN()),
		relation.Float(math.Copysign(0, -1)), relation.Float(0), relation.Float(1), relation.Float(1.5),
		relation.Float(-1), relation.Int(1)}
	ints := []relation.Value{relation.Null(relation.KindInt), relation.Int(0), relation.Int(1), relation.Int(2), relation.Int(4)}
	r := relation.New("pairs", relation.NewSchema(
		relation.Attribute{Name: "s1", Kind: relation.KindString},
		relation.Attribute{Name: "s2", Kind: relation.KindString},
		relation.Attribute{Name: "x", Kind: relation.KindFloat},
		relation.Attribute{Name: "n", Kind: relation.KindInt},
	))
	for i := 0; i+4 <= len(data) && r.Rows() < 14; i += 4 {
		row := []relation.Value{
			strs[int(data[i])%len(strs)], strs[int(data[i+1])%len(strs)],
			floats[int(data[i+2])%len(floats)], ints[int(data[i+3])%len(ints)],
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// sortedThresholds is the definitional threshold picker: all row-pair
// distances sorted, NaNs dropped, k evenly spaced ranks, deduplicated.
func sortedThresholds(r *relation.Relation, m metric.Metric, col, k int) []float64 {
	var clean []float64
	for i := 0; i < r.Rows(); i++ {
		for j := i + 1; j < r.Rows(); j++ {
			if d := m.Distance(r.Value(i, col), r.Value(j, col)); d == d {
				clean = append(clean, d)
			}
		}
	}
	if len(clean) == 0 {
		return nil
	}
	sort.Float64s(clean)
	var out []float64
	for i := 0; i < k; i++ {
		v := clean[i*(len(clean)-1)/max(1, k-1)]
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// count sums the kernel's weights over the tuple pairs of cols: lhs
// decides whether a pair counts, rhs whether it also holds.
func count(r *relation.Relation, cols []int, lhs, rhs func(a, b int) bool) (support, good int64) {
	metric.Pairs(nil, r, cols, func(a, b int, w int64) {
		if lhs(a, b) {
			support += w
			if rhs(a, b) {
				good += w
			}
		}
	})
	return support, good
}

func ratio(support, good int64) float64 {
	if support == 0 {
		return 1
	}
	return float64(good) / float64(support)
}

// similar reads cd.SimilarityFunc.Similar from θ's table.
func similar(f cd.SimilarityFunc, tab *metric.Table, a, b int) bool {
	ci, cj := tab.Classes(f.I), tab.Classes(f.J)
	slot := func(x, y int, t float64) bool {
		return t >= 0 && !tab.Null(x) && !tab.Null(y) && tab.At(x, y) <= t
	}
	return slot(ci[a], ci[b], f.TII) || slot(cj[a], cj[b], f.TJJ) || slot(ci[a], cj[b], f.TIJ) || slot(cj[a], ci[b], f.TIJ)
}

// FuzzPairKernelMatchesOracle checks the similarity branch's measures,
// computed from distance tables over tuple pairs with weights, against
// the definitional row-pair loops of internal/deps: MD, DD and NED support
// and confidence, the number of CD violations, and the threshold picker
// against a sort of every row-pair distance.
func FuzzPairKernelMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{2, 3, 1, 1, 2, 3, 1, 1, 3, 2, 2, 2, 4, 4, 3, 3, 0, 2, 1, 0, 2, 2, 7, 2})
	f.Add([]byte{5, 6, 2, 4, 6, 5, 3, 4, 1, 1, 0, 0, 1, 2, 1, 0, 5, 5, 4, 3, 2, 1, 5, 2, 3, 3, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := pairRelation(data)
		s := r.Schema()
		tables := make([]*metric.Table, r.Cols())
		for c := range tables {
			m := metric.ForKind(s.Attr(c).Kind)
			tables[c] = metric.NewTable(nil, r, m, c)
			for _, k := range []int{1, 2, 4, 9} {
				got, want := tables[c].Thresholds(nil, k), sortedThresholds(r, m, c, k)
				if len(got) != len(want) {
					t.Fatalf("col %d k %d: thresholds %v, want %v", c, k, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("col %d k %d: thresholds %v, want %v", c, k, got, want)
					}
				}
			}
		}
		within := func(c int, th float64) func(a, b int) bool {
			return func(a, b int) bool { return tables[c].Rows(a, b) <= th }
		}
		n := int64(r.Rows())
		for c := range tables {
			for _, th := range []float64{0, 1, 2} {
				// MD: identified is Value.Equal on the RHS cells.
				for _, rhs := range [][]int{{2}, {1, 3}} {
					cols := append([]int{c}, rhs...)
					sim, good := count(r, cols, within(c, th), func(a, b int) bool {
						for _, rc := range rhs {
							if !r.Value(a, rc).Equal(r.Value(b, rc)) {
								return false
							}
						}
						return true
					})
					support := 0.0
					if sim > 0 {
						support = float64(sim) / float64(n*(n-1)/2)
					}
					m := md.MD{LHS: []md.SimAttr{{Col: c, Metric: metric.ForKind(s.Attr(c).Kind), MaxDist: th}}, RHS: rhs, Schema: s}
					if ws, wc := m.SupportConfidence(r); ws != support || wc != ratio(sim, good) {
						t.Fatalf("%v: kernel (%v, %v), oracle (%v, %v)", m, support, ratio(sim, good), ws, wc)
					}
				}
				// DD with every operator on the RHS x.
				for op := dd.OpEq; op <= dd.OpGe; op++ {
					rf := dd.DiffFunc{Col: 2, Metric: metric.Absolute{}, Op: op, Threshold: 1}
					support, good := count(r, []int{c, 2}, within(c, th), func(a, b int) bool {
						return rf.Op.Eval(tables[2].Rows(a, b), rf.Threshold)
					})
					d := dd.DD{LHS: dd.Pattern{{Col: c, Metric: metric.ForKind(s.Attr(c).Kind), Op: dd.OpLe, Threshold: th}}, RHS: dd.Pattern{rf}, Schema: s}
					if ws, wc := d.SupportConfidence(r); int64(ws) != support || wc != ratio(support, good) {
						t.Fatalf("%v: kernel (%d, %v), oracle (%d, %v)", d, support, ratio(support, good), ws, wc)
					}
				}
				// NED with a two-column LHS and a two-term RHS.
				c2 := (c + 1) % r.Cols()
				lhs := func(a, b int) bool { return within(c, th)(a, b) && within(c2, 1)(a, b) }
				support, good := count(r, []int{c, c2, 2, 0}, lhs, func(a, b int) bool {
					return within(2, 0.5)(a, b) && within(0, 1)(a, b)
				})
				e := ned.NED{
					LHS: ned.Predicate{{Col: c, Metric: metric.ForKind(s.Attr(c).Kind), Threshold: th}, {Col: c2, Metric: metric.ForKind(s.Attr(c2).Kind), Threshold: 1}},
					RHS: ned.Predicate{{Col: 2, Metric: metric.Absolute{}, Threshold: 0.5}, {Col: 0, Metric: metric.Levenshtein{}, Threshold: 1}},
				}
				if ws, wc := e.SupportConfidence(r); int64(ws) != support || wc != ratio(support, good) {
					t.Fatalf("%v: kernel (%d, %v), oracle (%d, %v)", e, support, ratio(support, good), ws, wc)
				}
			}
		}
		// CD: violations are the LHS-similar pairs not RHS-similar. θ
		// over two columns uses one table over both.
		thetas := []cd.SimilarityFunc{
			{I: 0, J: 1, Metric: metric.Levenshtein{}, TII: 1, TIJ: 0, TJJ: -1},
			{I: 1, J: 1, Metric: metric.Levenshtein{}, TII: 0, TIJ: -1, TJJ: -1},
			{I: 2, J: 3, Metric: metric.Absolute{}, TII: 0, TIJ: 0.5, TJJ: 1},
			{I: 2, J: 2, Metric: metric.Equality{}, TII: 0, TIJ: -1, TJJ: -1},
		}
		tabs := make([]*metric.Table, len(thetas))
		for i, th := range thetas {
			tabs[i] = metric.NewTable(nil, r, th.Metric, th.I, th.J)
		}
		for i, lf := range thetas {
			for j, rf := range thetas {
				if i == j {
					continue
				}
				support, good := count(r, []int{lf.I, lf.J, rf.I, rf.J},
					func(a, b int) bool { return similar(lf, tabs[i], a, b) },
					func(a, b int) bool { return similar(rf, tabs[j], a, b) })
				c := cd.CD{LHS: []cd.SimilarityFunc{lf}, RHS: rf, Schema: s}
				if want := len(c.Violations(r, 0)); int64(want) != support-good {
					t.Fatalf("%v: kernel %d violations, oracle %d", c, support-good, want)
				}
			}
		}
	})
}
