// Benchmark harness regenerating the paper's tables and figures (see
// EXPERIMENTS.md for the per-artifact mapping):
//
//   - BenchmarkTable1… / Table5 / Table6 / Table7 — the running-example
//     fixtures exercised by their §1–§4 dependencies.
//   - BenchmarkTable2Discovery — one sub-benchmark per discovery algorithm
//     of Table 2's discovery column.
//   - BenchmarkTable3Applications — one sub-benchmark per application row.
//   - BenchmarkFig1A/Fig1B/Fig2 — the family tree (edge verification) and
//     its impact/timeline renderings.
//   - BenchmarkFig3Scaling… — empirical difficulty shapes: CSD tableau DP
//     stays polynomial while lattice/evidence searches grow combinatorially.
//   - BenchmarkAblation… — the design-choice ablations of DESIGN.md §4.
package deptree

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"deptree/internal/apps/cqa"
	"deptree/internal/apps/dedup"
	"deptree/internal/apps/detect"
	"deptree/internal/apps/fairness"
	"deptree/internal/apps/impute"
	"deptree/internal/apps/normalize"
	"deptree/internal/apps/qopt"
	"deptree/internal/apps/repair"
	"deptree/internal/attrset"
	"deptree/internal/core"
	"deptree/internal/deps"
	"deptree/internal/deps/cd"
	"deptree/internal/deps/dd"
	"deptree/internal/deps/fd"
	"deptree/internal/deps/md"
	"deptree/internal/deps/mfd"
	"deptree/internal/deps/ned"
	"deptree/internal/deps/pac"
	"deptree/internal/deps/sd"
	"deptree/internal/discovery/cddisc"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/dddisc"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/fastfd"
	"deptree/internal/discovery/ffddisc"
	"deptree/internal/discovery/mddisc"
	"deptree/internal/discovery/mvddisc"
	"deptree/internal/discovery/nedisc"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/pfddisc"
	"deptree/internal/discovery/sddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// ---- Running-example fixtures (Tables 1, 5, 6, 7) ----

func BenchmarkTable1ViolationDetection(b *testing.B) {
	r := gen.Table1()
	f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
	m := mfd.Must(r.Schema(), []string{"address"}, []string{"region"}, 4)
	rules := []deps.Dependency{f, m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(detect.Run(r, rules, detect.Options{})); got != 2 {
			b.Fatalf("reports = %d", got)
		}
	}
}

func BenchmarkTable5Measures(b *testing.B) {
	r := gen.Table5()
	f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.G3(r) != 0.25 {
			b.Fatal("g3 drifted")
		}
	}
}

func BenchmarkTable6HeterogeneousRules(b *testing.B) {
	r := gen.Table6()
	s := r.Schema()
	d := dd.DD{
		LHS:    dd.Pattern{dd.F(s, "name", dd.OpLe, 1), dd.F(s, "street", dd.OpLe, 5)},
		RHS:    dd.Pattern{dd.F(s, "address", dd.OpLe, 5)},
		Schema: s,
	}
	p := pac.PAC{
		LHS:        []pac.Tolerance{pac.T(s, "price", 100)},
		RHS:        []pac.Tolerance{pac.T(s, "tax", 10)},
		Confidence: 0.9, Schema: s,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !d.Holds(r) || p.Holds(r) {
			b.Fatal("fixture semantics drifted")
		}
	}
}

func BenchmarkTable7NumericalRules(b *testing.B) {
	r := gen.Table7()
	s1 := sd.Must(r.Schema(), []string{"nights"}, "subtotal", sd.Interval{Lo: 100, Hi: 200})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s1.Holds(r) {
			b.Fatal("sd1 drifted")
		}
	}
}

// ---- Table 2: the discovery column, one algorithm per sub-benchmark ----

func BenchmarkTable2Discovery(b *testing.B) {
	hotels := gen.Hotels(gen.HotelConfig{Rows: 150, Seed: 7, ErrorRate: 0.05, VarietyRate: 0.1, DuplicateRate: 0.1})
	small := gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 7, ErrorRate: 0.05, DuplicateRate: 0.2})
	cat := gen.Categorical(150, []int{4, 4, 3, 5}, 7)
	series := gen.Series(200, 9, 11, 0.1, 7)

	b.Run("FD/TANE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tane.DiscoverContext(context.Background(), cat, tane.Options{})
		}
	})
	b.Run("FD/FastFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fastfd.DiscoverContext(context.Background(), cat, fastfd.Options{})
		}
	})
	b.Run("AFD/TANE-g3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tane.DiscoverContext(context.Background(), cat, tane.Options{MaxError: 0.05})
		}
	})
	b.Run("SFD/CORDS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cords.DiscoverContext(context.Background(), hotels, cords.Options{SampleSize: 100})
		}
	})
	b.Run("PFD/counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pfddisc.DiscoverContext(context.Background(), cat, pfddisc.Options{MinProb: 0.8})
		}
	})
	b.Run("CFD/CFDMiner-const", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfddisc.DiscoverContext(context.Background(), hotels, cfddisc.Options{MinSupport: 5, MaxLHS: 2})
		}
	})
	b.Run("CFD/greedy-tableau", func(b *testing.B) {
		x := []int{hotels.Schema().MustIndex("address")}
		a := hotels.Schema().MustIndex("region")
		for i := 0; i < b.N; i++ {
			cfddisc.GreedyTableau(hotels, x, a, 1, 1)
		}
	})
	b.Run("MVD/levelwise", func(b *testing.B) {
		mv := gen.Categorical(60, []int{2, 3, 3}, 7)
		for i := 0; i < b.N; i++ {
			mvddisc.DiscoverContext(context.Background(), mv, mvddisc.Options{MaxLHS: 1})
		}
	})
	b.Run("DD/threshold-search", func(b *testing.B) {
		opts := dddisc.Options{RHS: dd.F(small.Schema(), "region", dd.OpLe, 6)}
		for i := 0; i < b.N; i++ {
			dddisc.DiscoverContext(context.Background(), small, opts)
		}
	})
	b.Run("MD/support-confidence", func(b *testing.B) {
		opts := mddisc.Options{RHS: []int{small.Schema().MustIndex("region")}, MinConfidence: 0.9}
		for i := 0; i < b.N; i++ {
			mddisc.DiscoverContext(context.Background(), small, opts)
		}
	})
	b.Run("NED/predicate-search", func(b *testing.B) {
		opts := nedisc.Options{
			RHS:     ned.Predicate{ned.T(small.Schema(), "region", 5)},
			LHSCols: []int{small.Schema().MustIndex("address"), small.Schema().MustIndex("name")},
		}
		for i := 0; i < b.N; i++ {
			nedisc.DiscoverContext(context.Background(), small, opts)
		}
	})
	b.Run("FFD/pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ffddisc.DiscoverContext(context.Background(), small, ffddisc.Options{MaxLHS: 1})
		}
	})
	b.Run("CD/pay-as-you-go", func(b *testing.B) {
		ds := gen.Dataspace()
		for i := 0; i < b.N; i++ {
			sess := cddisc.NewSession(ds, cddisc.Options{})
			sess.AddFunction(cd.Theta(ds.Schema(), "region", "city", 5, 5, 5))
			sess.AddFunction(cd.Theta(ds.Schema(), "addr", "post", 7, 9, 6))
		}
	})
	b.Run("AMVD/levelwise", func(b *testing.B) {
		mv := gen.Categorical(60, []int{2, 3, 3}, 7)
		for i := 0; i < b.N; i++ {
			mvddisc.DiscoverContext(context.Background(), mv, mvddisc.Options{MaxLHS: 1, MaxSpurious: 0.1})
		}
	})
	b.Run("DC/FASTDC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fastdc.DiscoverContext(context.Background(), small, fastdc.Options{MaxPredicates: 2})
		}
	})
	b.Run("OD/pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oddisc.DiscoverContext(context.Background(), hotels, oddisc.Options{})
		}
	})
	b.Run("SD/interval-fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sddisc.FitInterval(series, []int{0}, 1, 0.9)
		}
	})
	b.Run("CSD/tableau-DP", func(b *testing.B) {
		s := sd.Must(series.Schema(), []string{"seq"}, "value", sd.Interval{Lo: 9, Hi: 11})
		for i := 0; i < b.N; i++ {
			sddisc.TableauDP(series, s, 1, 15)
		}
	})
}

// ---- Table 3: the application rows ----

func BenchmarkTable3Applications(b *testing.B) {
	dirty := gen.Hotels(gen.HotelConfig{Rows: 150, Seed: 9, ErrorRate: 0.1, DuplicateRate: 0.2})
	s := dirty.Schema()
	f := fd.Must(s, []string{"address"}, []string{"region"})

	b.Run("ViolationDetection", func(b *testing.B) {
		rules := []deps.Dependency{f}
		for i := 0; i < b.N; i++ {
			detect.Run(dirty, rules, detect.Options{})
		}
	})
	b.Run("DataRepairing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repair.FDRepair(dirty, []fd.FD{f})
		}
	})
	b.Run("QueryOptimization", func(b *testing.B) {
		addr, region := s.MustIndex("address"), s.MustIndex("region")
		for i := 0; i < b.N; i++ {
			qopt.JointSelectivity(dirty, addr, region)
			qopt.BuildCorrelationMap(dirty, addr, region, 16)
		}
	})
	b.Run("ConsistentQueryAnswering", func(b *testing.B) {
		price := s.MustIndex("price")
		pred := func(row int) bool { return dirty.Value(row, price).Num() > 300 }
		for i := 0; i < b.N; i++ {
			cqa.CertainAnswers(dirty, []fd.FD{f}, pred)
		}
	})
	b.Run("DataDeduplication", func(b *testing.B) {
		m := md.MD{
			LHS:    []md.SimAttr{md.Sim(s, "address", 4)},
			RHS:    []int{s.MustIndex("region")},
			Schema: s,
		}
		for i := 0; i < b.N; i++ {
			dedup.Clusters(dirty, []md.MD{m}, dedup.Options{BlockingCol: s.MustIndex("region")})
		}
	})
	b.Run("DataPartition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dedup.CandidatePairs(dirty, dedup.Options{BlockingCol: s.MustIndex("region")})
		}
	})
	b.Run("SchemaNormalization", func(b *testing.B) {
		fds := []fd.FD{
			{LHS: attrset.Of(0), RHS: attrset.Of(1)},
			{LHS: attrset.Of(1), RHS: attrset.Of(2)},
			{LHS: attrset.Of(0, 3), RHS: attrset.Of(4)},
		}
		for i := 0; i < b.N; i++ {
			normalize.Synthesize3NF(5, fds)
			normalize.DecomposeBCNF(5, fds)
		}
	})
	b.Run("ModelFairness", func(b *testing.B) {
		biased := biasedAdmissions()
		for i := 0; i < b.N; i++ {
			fairness.Repair(biased, 0, 2, []int{1})
		}
	})
	b.Run("Imputation", func(b *testing.B) {
		holed := dirty.Clone()
		region := s.MustIndex("region")
		for row := 0; row < holed.Rows(); row += 6 {
			holed.SetValue(row, region, relation.Null(relation.KindString))
		}
		n := ned.NED{
			LHS:    ned.Predicate{ned.T(s, "address", 0)},
			RHS:    ned.Predicate{ned.T(s, "region", 0)},
			Schema: s,
		}
		for i := 0; i < b.N; i++ {
			impute.PNeighborhood(holed, n, region)
		}
	})
}

func biasedAdmissions() *relation.Relation {
	s := relation.Strings("gender", "dept", "admit")
	r := relation.New("admissions", s)
	add := func(g, d, a string, n int) {
		for i := 0; i < n; i++ {
			_ = r.Append([]relation.Value{relation.String(g), relation.String(d), relation.String(a)})
		}
	}
	add("m", "A", "yes", 10)
	add("f", "A", "no", 10)
	add("m", "B", "no", 5)
	add("f", "B", "no", 5)
	return r
}

// ---- Fig 1 and Fig 2 ----

func BenchmarkFig1AEdgeVerification(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fails := core.VerifyAll(int64(i)); len(fails) != 0 {
			b.Fatalf("edge failures: %v", fails)
		}
	}
}

func BenchmarkFig1BImpactRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RenderImpact()
	}
}

func BenchmarkFig2Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.RenderTimeline()
	}
}

// ---- Fig 3: empirical difficulty shapes ----

// BenchmarkFig3ScalingTANE shows the lattice blow-up with attribute count
// (the output-exponential row of Fig 3).
func BenchmarkFig3ScalingTANE(b *testing.B) {
	for _, cols := range []int{3, 5, 7, 9} {
		cards := make([]int, cols)
		for i := range cards {
			cards[i] = 3
		}
		r := gen.Categorical(100, cards, 11)
		b.Run(fmt.Sprintf("attrs=%d", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tane.DiscoverContext(context.Background(), r, tane.Options{})
			}
		})
	}
}

// BenchmarkFig3ScalingFASTDC shows the quadratic evidence-set build with
// tuple count (DC discovery's dominant cost).
func BenchmarkFig3ScalingFASTDC(b *testing.B) {
	for _, rows := range []int{25, 50, 100, 200} {
		r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 13})
		space := fastdc.PredicateSpace(r, false)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fastdc.EvidenceSets(r, space)
			}
		})
	}
}

// BenchmarkFig3ScalingCSDPoly shows the CSD tableau DP scaling politely
// with candidate-interval count — the polynomial-time highlight of Fig 3.
func BenchmarkFig3ScalingCSDPoly(b *testing.B) {
	r := gen.Series(400, 9, 11, 0.1, 17)
	s := sd.Must(r.Schema(), []string{"seq"}, "value", sd.Interval{Lo: 9, Hi: 11})
	for _, k := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("breakpoints=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sddisc.TableauDP(r, s, 1, k)
			}
		})
	}
}

// ---- Ablations (DESIGN.md §4) ----

// BenchmarkAblationPartitionVsPairScan compares TANE's stripped-partition
// FD validation against the naive O(n²) pairwise definition.
func BenchmarkAblationPartitionVsPairScan(b *testing.B) {
	// Clean data: the FD holds, so the pair scan cannot exit early and
	// pays its full O(n²), while the partition check stays O(n).
	r := gen.Hotels(gen.HotelConfig{Rows: 400, Seed: 19})
	s := r.Schema()
	lhs := attrset.Single(s.MustIndex("address"))
	rhs := attrset.Single(s.MustIndex("region"))
	b.Run("partition", func(b *testing.B) {
		f := fd.FD{LHS: lhs, RHS: rhs, Schema: s}
		for i := 0; i < b.N; i++ {
			f.Holds(r)
		}
	})
	b.Run("pairscan", func(b *testing.B) {
		a, c := s.MustIndex("address"), s.MustIndex("region")
		for i := 0; i < b.N; i++ {
			holds := true
		outer:
			for x := 0; x < r.Rows(); x++ {
				for y := x + 1; y < r.Rows(); y++ {
					if r.Value(x, a).Equal(r.Value(y, a)) && !r.Value(x, c).Equal(r.Value(y, c)) {
						holds = false
						break outer
					}
				}
			}
			_ = holds
		}
	})
}

// BenchmarkAblationTANEvsFastFD contrasts the two FD-discovery strategies
// on a wide-short vs a narrow-long relation.
func BenchmarkAblationTANEvsFastFD(b *testing.B) {
	wide := gen.Categorical(50, []int{2, 2, 2, 2, 2, 2, 2, 2}, 23)
	long := gen.Categorical(800, []int{4, 4, 4}, 23)
	b.Run("wide/TANE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tane.DiscoverContext(context.Background(), wide, tane.Options{})
		}
	})
	b.Run("wide/FastFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fastfd.DiscoverContext(context.Background(), wide, fastfd.Options{})
		}
	})
	b.Run("long/TANE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tane.DiscoverContext(context.Background(), long, tane.Options{})
		}
	})
	b.Run("long/FastFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fastfd.DiscoverContext(context.Background(), long, fastfd.Options{})
		}
	})
}

// BenchmarkAblationMDApprox compares exact MD discovery with the first-k
// statistical approximation of [87].
func BenchmarkAblationMDApprox(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 400, Seed: 29, DuplicateRate: 0.3})
	opts := mddisc.Options{
		RHS:           []int{r.Schema().MustIndex("region")},
		LHSCols:       []int{r.Schema().MustIndex("address")},
		MinSupport:    0.0001,
		MinConfidence: 0.95,
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mddisc.DiscoverContext(context.Background(), r, opts)
		}
	})
	b.Run("first-k=100", func(b *testing.B) {
		o := opts
		o.FirstK = 100
		for i := 0; i < b.N; i++ {
			mddisc.DiscoverContext(context.Background(), r, o)
		}
	})
}

// BenchmarkAblationBlocking compares all-pairs matching against
// blocking-key candidate generation in dedup.
func BenchmarkAblationBlocking(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 400, Seed: 31, DuplicateRate: 0.3})
	s := r.Schema()
	m := md.MD{
		LHS:    []md.SimAttr{md.Sim(s, "address", 4)},
		RHS:    []int{s.MustIndex("region")},
		Schema: s,
	}
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dedup.Clusters(r, []md.MD{m}, dedup.Options{BlockingCol: -1})
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dedup.Clusters(r, []md.MD{m}, dedup.Options{BlockingCol: s.MustIndex("region")})
		}
	})
}

// BenchmarkAblationEvidenceDedup compares FASTDC's deduplicated evidence
// sets against a naive per-pair list.
func BenchmarkAblationEvidenceDedup(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 120, Seed: 37})
	space := fastdc.PredicateSpace(r, false)
	b.Run("dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fastdc.EvidenceSets(r, space)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Materialize every pair's evidence without dedup.
			var all [][]bool
			for x := 0; x < r.Rows(); x++ {
				for y := 0; y < r.Rows(); y++ {
					if x == y {
						continue
					}
					ev := make([]bool, len(space))
					for p, pred := range space {
						ev[p] = pred.Eval(r, x, y)
					}
					all = append(all, ev)
				}
			}
			_ = all
		}
	})
}

// ---- Partition micro-benchmarks (substrate) ----

func BenchmarkPartitionBuild(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 1000, Seed: 41})
	x := attrset.Of(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		partition.Build(r, x)
	}
}

// ---- Dictionary-encoding micro-benchmarks (substrate) ----

// benchHotelsCSV decodes a generated hotels relation through
// ReadCSVAuto, so column kinds and cell payloads are exactly what the
// server sees for the same rows.
func benchHotelsCSV(b *testing.B, rows int) *relation.Relation {
	b.Helper()
	var buf bytes.Buffer
	src := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 7, ErrorRate: 0.02, VarietyRate: 0.05, DuplicateRate: 0.1})
	if err := relation.WriteCSV(src, &buf); err != nil {
		b.Fatal(err)
	}
	r, err := relation.ReadCSVAuto("hotels", buf.Bytes(), relation.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRelationCodes measures dictionary-encoding every column of a
// hotels relation once, the per-run cost PFD discovery pays.
func BenchmarkRelationCodes(b *testing.B) {
	for _, rows := range []int{500, 1500, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			r := benchHotelsCSV(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < r.Cols(); c++ {
					r.Codes(c)
				}
			}
		})
	}
}

// BenchmarkPFDDiscover measures single-source PFD discovery (every
// X → A over single attributes) on hotels relations.
func BenchmarkPFDDiscover(b *testing.B) {
	for _, rows := range []int{500, 1500, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			r := benchHotelsCSV(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pfddisc.DiscoverContext(context.Background(), r, pfddisc.Options{})
			}
		})
	}
}

// BenchmarkFastFDDiscover measures FastFD on a 500-row hotels relation,
// the row cap the server's fastfd traffic runs at.
func BenchmarkFastFDDiscover(b *testing.B) {
	r := benchHotelsCSV(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fastfd.DiscoverContext(context.Background(), r, fastfd.Options{})
	}
}

// BenchmarkCORDSDiscover measures CORDS over every ordered column pair
// (72 on hotels) of the whole relation.
func BenchmarkCORDSDiscover(b *testing.B) {
	for _, rows := range []int{500, 1500, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			r := benchHotelsCSV(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cords.DiscoverContext(context.Background(), r, cords.Options{})
			}
		})
	}
}

// BenchmarkPartitionProduct measures the stripped-product hot path over
// the class shapes that stress its different emit routes: small (a few
// large classes), skewed (one dominant class plus a tail), and key-like
// (mostly singletons). Iterations reuse the pooled scratch arena, as the
// engine's partition cache does.
func BenchmarkPartitionProduct(b *testing.B) {
	const n = 1000
	rng := rand.New(rand.NewSource(43))
	shapes := []struct {
		name   string
		c1, c2 []int
	}{
		{"small", benchCodes(n, func(int) int { return rng.Intn(4) }), benchCodes(n, func(int) int { return rng.Intn(3) })},
		{"skewed", benchCodes(n, func(int) int {
			if rng.Intn(5) > 0 {
				return 0
			}
			return 1 + rng.Intn(32)
		}), benchCodes(n, func(int) int {
			if rng.Intn(5) > 0 {
				return 0
			}
			return 1 + rng.Intn(24)
		})},
		{"key-like", benchCodes(n, func(int) int { return rng.Intn(n * 9 / 10) }), benchCodes(n, func(int) int { return rng.Intn(n * 9 / 10) })},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			p1 := partition.FromCodes(sh.c1, benchCard(sh.c1))
			p2 := partition.FromCodes(sh.c2, benchCard(sh.c2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p1.Product(p2)
			}
		})
	}
	b.Run("hotels", func(b *testing.B) {
		r := gen.Hotels(gen.HotelConfig{Rows: 1000, Seed: 43})
		p1 := partition.Build(r, attrset.Single(1))
		p2 := partition.Build(r, attrset.Single(3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p1.Product(p2)
		}
	})
}

// BenchmarkTaneServed is the partition product's served-shape layer
// bench: exact tane over hotels decoded as the server decodes them, at
// the sync-mix row counts and one and two workers. Each run builds its
// own partition cache, so every product of the lattice walk is timed.
func BenchmarkTaneServed(b *testing.B) {
	for _, rows := range []int{500, 1500, 5000} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				r := benchHotelsCSV(b, rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tane.DiscoverContext(context.Background(), r, tane.Options{Exec: engine.Exec{Workers: workers}})
				}
			})
		}
	}
}

// benchCodes draws n codes and remaps them to first-appearance order, the
// contract partition.FromCodes expects from relation encodings.
func benchCodes(n int, draw func(i int) int) []int {
	seen := map[int]int{}
	out := make([]int, n)
	for i := range out {
		v := draw(i)
		c, ok := seen[v]
		if !ok {
			c = len(seen)
			seen[v] = c
		}
		out[i] = c
	}
	return out
}

func benchCard(codes []int) int {
	card := 0
	for _, c := range codes {
		if c >= card {
			card = c + 1
		}
	}
	return card
}
