package deptree

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"deptree/internal/deps/cd"
	"deptree/internal/deps/dd"
	"deptree/internal/deps/ned"
	"deptree/internal/discovery/cddisc"
	"deptree/internal/discovery/dddisc"
	"deptree/internal/discovery/mddisc"
	"deptree/internal/discovery/nedisc"
	"deptree/internal/discovery/registry"
	"deptree/internal/metric"
	"deptree/internal/relation"
)

// goldenSimilarityDigests pins the output of the similarity-branch
// discoverers (md, dd, ned, cd), hashed over similarityDatasets. They
// were computed while each discoverer still walked every row pair with
// its own loop and called the metric once per pair, before all four
// moved onto the shared distance tables of internal/metric.
var goldenSimilarityDigests = map[string]string{
	"md-w1":      "c95a6c2a976add0eeeb91a66678d8451d0a75ab3df7a1d1947f71d218251c63c",
	"md-w4":      "c95a6c2a976add0eeeb91a66678d8451d0a75ab3df7a1d1947f71d218251c63c",
	"dd-w1":      "5ccae9dfcfcaac0b13c637e5a94e219ffa09d0ba04979b25b8b1e947e844b44b",
	"dd-w4":      "5ccae9dfcfcaac0b13c637e5a94e219ffa09d0ba04979b25b8b1e947e844b44b",
	"ned-w1":     "e2d6d360c3d6cbf57627d7d1978b0f4181cb348e0a52c2a4a427a0e61b8d1c4b",
	"ned-w4":     "e2d6d360c3d6cbf57627d7d1978b0f4181cb348e0a52c2a4a427a0e61b8d1c4b",
	"cd-w1":      "92b59e8ff2597dd4ab714c3f6ee69b0e38f13cacbeffd35ffe1dc2f5a1b6fc49",
	"cd-w4":      "92b59e8ff2597dd4ab714c3f6ee69b0e38f13cacbeffd35ffe1dc2f5a1b6fc49",
	"md-firstk":  "fc472534e2825605088a371c671cb9269640b13bcee1b56e60c97acb4316fb56",
	"dd-maxthr":  "8dd8f85d5ef2ab397edfb5668e9c8fe1c14a19473d6f51dee54527d5273ff7ac",
	"ned-maxlhs": "e8c9461408cc9d4c16b50a549c2fecb8674585a78fe6036e62f597e6b2a004ed",
	"cd-thetas":  "91d0087a441a92b86ff1f57ad51a54f8d3b045fd7008c51aaedabd1a4cc7c70a",
}

// similarityDatasets are the ≤250-row golden datasets plus oddCells.
func similarityDatasets() []goldenDataset {
	var out []goldenDataset
	for _, d := range goldenDatasets() {
		if d.r.Rows() <= 250 {
			out = append(out, d)
		}
	}
	return append(out, goldenDataset{name: "odd-cells", r: oddCells(), x: 1, y: 2, z: 3, w: 0, small: true})
}

// oddCells is a hand-built relation over the cells where value equality
// and dictionary equivalence part ways: NaN (never Equal, one code), -0
// and +0 (Equal, two codes), nulls of several kinds, plus repeated rows
// and string payloads shared across columns. Its last column, the
// registry's RHS for md, dd and ned, holds the numeric oddities.
func oddCells() *relation.Relation {
	s := relation.String
	f := relation.Float
	i := relation.Int
	nan, neg := math.NaN(), math.Copysign(0, -1)
	nullS, nullF := relation.Null(relation.KindString), relation.Null(relation.KindFloat)
	schema := relation.NewSchema(
		relation.Attribute{Name: "src", Kind: relation.KindString},
		relation.Attribute{Name: "name", Kind: relation.KindString},
		relation.Attribute{Name: "alias", Kind: relation.KindString},
		relation.Attribute{Name: "n", Kind: relation.KindInt},
		relation.Attribute{Name: "x", Kind: relation.KindFloat},
	)
	return relation.MustFromRows("odd-cells", schema, [][]relation.Value{
		{s("a"), s("Center"), s("Centre"), i(1), f(0)},
		{s("a"), s("Center"), s("Centre"), i(1), f(0)},
		{s("a"), s("Center"), s("Center"), i(1), f(neg)},
		{s("b"), s("Regis"), s("Regis"), i(2), f(nan)},
		{s("b"), s("Regis"), s("Regis"), i(2), f(nan)},
		{s("b"), s("Regs"), nullS, i(2), f(nan)},
		{s("c"), nullS, nullS, relation.Null(relation.KindInt), nullF},
		{s("c"), nullS, s("Wood"), relation.Null(relation.KindInt), nullF},
		{s("c"), s("Wood"), s("Wood"), i(3), f(1.5)},
		{s("c"), s("Wood"), s("Wod"), i(3), f(2)},
		{s("a"), s("Center"), s("Centre"), i(1), f(0)},
		{nullS, s(""), s(""), i(0), f(neg)},
		{nullS, s(""), s("Center"), i(0), f(-1.5)},
		{s("b"), s("Regis"), s("Regis"), i(2), f(nan)},
	})
}

func writeRegistry(h hash.Hash, algo string, r *relation.Relation, workers int) {
	a, _ := registry.Lookup(algo)
	fmt.Fprint(h, a.Run(context.Background(), r, registry.RunOptions{Workers: workers}).Text())
}

func writeRules[T fmt.Stringer](h hash.Hash, rules []T) {
	for _, r := range rules {
		fmt.Fprintln(h, r.String())
	}
}

func lastColumn(r *relation.Relation) int { return r.Cols() - 1 }

var goldenSimilarityFuncs = map[string]func(h hash.Hash, d goldenDataset){
	"md-w1":  func(h hash.Hash, d goldenDataset) { writeRegistry(h, "md", d.r, 1) },
	"md-w4":  func(h hash.Hash, d goldenDataset) { writeRegistry(h, "md", d.r, 4) },
	"dd-w1":  func(h hash.Hash, d goldenDataset) { writeRegistry(h, "dd", d.r, 1) },
	"dd-w4":  func(h hash.Hash, d goldenDataset) { writeRegistry(h, "dd", d.r, 4) },
	"ned-w1": func(h hash.Hash, d goldenDataset) { writeRegistry(h, "ned", d.r, 1) },
	"ned-w4": func(h hash.Hash, d goldenDataset) { writeRegistry(h, "ned", d.r, 4) },
	"cd-w1":  func(h hash.Hash, d goldenDataset) { writeRegistry(h, "cd", d.r, 1) },
	"cd-w4":  func(h hash.Hash, d goldenDataset) { writeRegistry(h, "cd", d.r, 4) },
	"md-firstk": func(h hash.Hash, d goldenDataset) {
		for _, k := range []int{0, 2, d.r.Rows() / 2} {
			for _, opts := range []mddisc.Options{
				{RHS: []int{d.y}, MinSupport: 0.001, MinConfidence: 0.5},
				{RHS: []int{lastColumn(d.r)}, MinSupport: 0.0001, MinConfidence: 0.05, Thresholds: []float64{3, 0, 1, 8, 1}},
				{RHS: []int{d.y, d.z}, MinConfidence: 0.2},
			} {
				opts.FirstK = k
				res := mddisc.DiscoverContext(context.Background(), d.r, opts)
				fmt.Fprintln(h, k, res.Completed)
				writeRules(h, res.MDs)
			}
		}
	},
	"dd-maxthr": func(h hash.Hash, d goldenDataset) {
		s := d.r.Schema()
		for _, k := range []int{1, 3, 20} {
			for _, rhs := range []dd.DiffFunc{
				dd.F(s, name(d.r, d.y), dd.OpLe, 1),
				dd.F(s, name(d.r, d.y), dd.OpLe, 8),
				dd.F(s, name(d.r, lastColumn(d.r)), dd.OpGe, 0),
			} {
				res := dddisc.DiscoverContext(context.Background(), d.r, dddisc.Options{
					RHS: rhs, MaxThresholds: k, MinSupport: 2,
				})
				fmt.Fprintln(h, k, res.Completed)
				writeRules(h, res.DDs)
			}
		}
	},
	"ned-maxlhs": func(h hash.Hash, d goldenDataset) {
		s := d.r.Schema()
		rhs := ned.Predicate{ned.T(s, name(d.r, d.y), 1), ned.T(s, name(d.r, d.z), 0)}
		for _, opts := range []nedisc.Options{
			{RHS: rhs, MaxLHS: 1},
			{RHS: rhs, MaxLHS: 1, MaxThresholds: 3, MinConfidence: 0.8},
			{RHS: rhs, MaxThresholds: 4, MinConfidence: 0.7, MinSupport: 3},
		} {
			res := nedisc.DiscoverContext(context.Background(), d.r, opts)
			fmt.Fprintln(h, res.Completed)
			writeRules(h, res.NEDs)
		}
	},
	"cd-thetas": func(h hash.Hash, d goldenDataset) {
		s := d.r.Schema()
		thetas := []cd.SimilarityFunc{
			cd.Theta(s, name(d.r, d.w), name(d.r, d.x), 2, 3, 2),
			cd.Single(s, name(d.r, d.y), 1),
			cd.Theta(s, name(d.r, d.y), name(d.r, d.z), 1, 1, -1),
			{I: d.z, J: lastColumn(d.r), Metric: metric.Absolute{}, TII: 0, TIJ: 5, TJJ: 1},
		}
		for _, opts := range []cddisc.Options{
			{Thetas: thetas},
			{Thetas: thetas, MaxLHS: 1, MinSupport: 3},
		} {
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				res := cddisc.DiscoverContext(context.Background(), d.r, opts)
				fmt.Fprintln(h, res.Completed)
				writeRules(h, res.CDs)
			}
		}
	},
}

// TestSimilarityGolden checks md, dd, ned and cd, through the registry
// at workers 1 and 4 and through the non-default options of their
// packages, against goldenSimilarityDigests.
func TestSimilarityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest sweep skipped in -short mode")
	}
	datasets := similarityDatasets()
	for fn, want := range goldenSimilarityDigests {
		h := sha256.New()
		for _, d := range datasets {
			fmt.Fprintf(h, "== %s\n", d.name)
			goldenSimilarityFuncs[fn](h, d)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: digest %s, want %s", fn, got, want)
		}
	}
}
