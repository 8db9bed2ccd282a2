package deptree

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"deptree/internal/apps/dedup"
	"deptree/internal/apps/fairness"
	"deptree/internal/apps/impute"
	"deptree/internal/apps/normalize"
	"deptree/internal/apps/repair"
	"deptree/internal/attrset"
	"deptree/internal/deps/cfd"
	"deptree/internal/deps/dd"
	"deptree/internal/deps/fd"
	"deptree/internal/deps/md"
	"deptree/internal/deps/ned"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/registry"
	"deptree/internal/gen"
	"deptree/internal/relation"
	"deptree/internal/stream"
)

// goldenEqualityDigests pins the output of every function that groups or
// compares cells by value equality, hashed over all goldenDatasets. The
// digests were computed before these functions moved onto the relation's
// dictionary codes; they must never move on data without NaN or signed
// zeros.
var goldenEqualityDigests = map[string]string{
	"fd-repair":          "3a8633c1198aba946ab55b07d73d4744aada9b751cbfd450b25fb4f88a64e581",
	"interactive-repair": "1827771e07b059b65b100de0421ed0fd47bea208b889fb9de5e1fc46defda3d8",
	"impute":             "f342be81416dd3cbfbaed26d043a89049803e65961e3be5b4330dde30501ab49",
	"dedup":              "42b9b96c828cbb29cc5e101a04aaf25f411c6f6568c0304be5644d1840dca29e",
	"fairness":           "0d0fdf7638ef7497cc3654ee58da347f567db25ae2999628ee5d0168f83094db",
	"normalize":          "73b311ba810506458407def4b71ca4f04d8f1d42701d0b9ef72c75cc173d4eaf",
	"stats":              "e7a9ed8b2bff854f8f6c6aea5db08f3a126c5f9f501e4ab58c33a92bd8f0e992",
	"cfd-violations":     "9dc7de5cda907a1f8f064fe3134716652523b3d5bac3b36eb2c73c68845b53e0",
	"constant-cfds":      "0bab36a87f21275129f5fa36aaf53f2bc6052230a9afac9ac4ca704767c1be80",
	"ctane":              "aa87a5c5c70038da05591deabc7716e17248ce8150c4a2b54bc9aedf10f0fefc",
	// The tane and stream-tane digests pin the partition product (tane's
	// lattice walk, its sampled verifier and the stream refiner). They
	// were computed while the product still had a bit-parallel staging
	// path, which the 600-row hotels inputs (≥256 rows, ≤64-class
	// columns) took.
	"tane-w1":     "f1f13799c68dfdd9f05af88b78da86cd02de1bce51042c6bd35b733f23da4748",
	"tane-w4":     "f1f13799c68dfdd9f05af88b78da86cd02de1bce51042c6bd35b733f23da4748",
	"stream-tane": "0b85407bcd382acce67e8aab564e8bd1ae5e4fcb2b8b1b43d499896dc33a0368",
}

// goldenDataset is one input plus the columns the digests use: x is a
// determinant, y its dependent, z a third attribute and w a grouping
// attribute.
type goldenDataset struct {
	name       string
	r          *relation.Relation
	x, y, z, w int
	// small gates the quadratic functions (interactive repair, lossless
	// join) to the smaller inputs.
	small bool
}

func goldenDatasets() []goldenDataset {
	var out []goldenDataset
	for _, seed := range []int64{1, 7, 23} {
		for _, rows := range []int{60, 250, 600} {
			r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: seed, ErrorRate: 0.08, VarietyRate: 0.1, DuplicateRate: 0.15})
			out = append(out, goldenDataset{
				name: fmt.Sprintf("hotels-%d-seed%d", rows, seed), r: r,
				x: 2, y: 3, z: 4, w: 0, small: rows <= 250,
			})
		}
	}
	for _, f := range []struct {
		name string
		r    *relation.Relation
	}{
		{"table1", gen.Table1()}, {"table5", gen.Table5()}, {"table6", gen.Table6()},
		{"table7", gen.Table7()}, {"dataspace", gen.Dataspace()},
	} {
		out = append(out, goldenDataset{name: f.name, r: f.r, x: 1, y: 2, z: 3, w: 0, small: true})
	}
	return out
}

func writeRelation(h hash.Hash, r *relation.Relation) {
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		panic(err)
	}
	h.Write(buf.Bytes())
}

// writeSortedRelation hashes the relation's CSV lines in sorted order,
// for outputs whose row order is not part of the contract.
func writeSortedRelation(h hash.Hash, r *relation.Relation) {
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		panic(err)
	}
	lines := strings.Split(buf.String(), "\n")
	sort.Strings(lines)
	fmt.Fprintln(h, strings.Join(lines, "\n"))
}

func writeRepair(h hash.Hash, res repair.Result) {
	for _, ch := range res.Changes {
		fmt.Fprintln(h, ch.String())
	}
	writeRelation(h, res.Repaired)
}

func name(r *relation.Relation, c int) string { return r.Schema().Attr(c).Name }

var goldenEqualityFuncs = map[string]func(h hash.Hash, d goldenDataset){
	"fd-repair": func(h hash.Hash, d goldenDataset) {
		r := d.r
		xy := fd.FD{LHS: attrset.Single(d.x), RHS: attrset.Single(d.y)}
		yz := fd.FD{LHS: attrset.Single(d.y), RHS: attrset.Single(d.z)}
		wxz := fd.FD{LHS: attrset.Of(d.w, d.x), RHS: attrset.Of(d.y, d.z)}
		for _, fds := range [][]fd.FD{{xy}, {yz}, {wxz}, {xy, yz, wxz}} {
			writeRepair(h, repair.FDRepair(r, fds))
		}
	},
	"interactive-repair": func(h hash.Hash, d goldenDataset) {
		if !d.small {
			return
		}
		r, s := d.r, d.r.Schema()
		f := fd.FD{LHS: attrset.Single(d.x), RHS: attrset.Single(d.y)}
		m := md.MD{LHS: []md.SimAttr{md.Sim(s, name(r, d.x), 2)}, RHS: []int{d.y}, Schema: s}
		writeRepair(h, repair.InteractiveClean(r, []md.MD{m}, []fd.FD{f}, 3))
	},
	"impute": func(h hash.Hash, d goldenDataset) {
		r, s := d.r, d.r.Schema()
		holed := r.Clone()
		for row := 0; row < r.Rows(); row += 4 {
			holed.SetValue(row, d.y, relation.Null(s.Attr(d.y).Kind))
		}
		n := ned.NED{LHS: ned.Predicate{ned.T(s, name(r, d.x), 0)}, RHS: ned.Predicate{ned.T(s, name(r, d.y), 0)}, Schema: s}
		filled, count := impute.PNeighborhood(holed, n, d.y)
		fmt.Fprintln(h, count)
		writeRelation(h, filled)
		loose := dd.DD{LHS: dd.Pattern{dd.F(s, name(r, d.x), dd.OpLe, 3)}, RHS: dd.Pattern{dd.F(s, name(r, d.y), dd.OpLe, 0)}, Schema: s}
		filled, count = impute.DDEnriched(holed, loose, d.y)
		fmt.Fprintln(h, count)
		writeRelation(h, filled)
	},
	"dedup": func(h hash.Hash, d goldenDataset) {
		r, s := d.r, d.r.Schema()
		m := md.MD{LHS: []md.SimAttr{md.Sim(s, name(r, d.x), 4)}, RHS: []int{d.y}, Schema: s}
		clusters := dedup.Clusters(r, []md.MD{m}, dedup.Options{BlockingCol: d.w})
		fmt.Fprintln(h, clusters)
		writeRelation(h, dedup.Merge(r, clusters))
	},
	"fairness": func(h hash.Hash, d goldenDataset) {
		r := d.r
		fmt.Fprintf(h, "%v %.17g\n", fairness.CheckCI(r, d.y, d.z, []int{d.w}), fairness.DisparityRatio(r, d.y, d.z))
		writeSortedRelation(h, fairness.Repair(r, d.y, d.z, []int{d.w}))
		writeSortedRelation(h, fairness.Repair(r, d.y, d.z, nil))
	},
	"normalize": func(h hash.Hash, d goldenDataset) {
		if !d.small {
			return
		}
		full := attrset.Full(d.r.Cols())
		xy := attrset.Of(d.x, d.y)
		for _, schemes := range [][]attrset.Set{
			{xy, full.Remove(d.y)},
			{attrset.Of(d.y, d.z), full.Remove(d.z)},
			{attrset.Of(d.w, d.x), full.Remove(d.w)},
		} {
			fmt.Fprintln(h, normalize.LosslessJoin(d.r, schemes))
		}
	},
	"stats": func(h hash.Hash, d goldenDataset) {
		for _, st := range relation.Stats(d.r, 3) {
			fmt.Fprintf(h, "%s|%d|%d|%d|%.17g|%.17g|%v\n", st.String(), st.Rows, st.Nulls, st.Distinct, st.Min, st.Max, st.TopValues)
			for _, tv := range st.TopValues {
				fmt.Fprintln(h, tv.Value.Kind(), tv.Value.IsNull())
			}
		}
	},
	"cfd-violations": func(h hash.Hash, d goldenDataset) {
		r, s := d.r, d.r.Schema()
		first := cfd.Const(r.Value(0, d.w))
		for _, c := range []struct {
			x, y  []int
			cells []cfd.Cell
		}{
			{[]int{d.x}, []int{d.y}, []cfd.Cell{cfd.Wildcard(), cfd.Wildcard()}},
			{[]int{d.y}, []int{d.z}, []cfd.Cell{cfd.Wildcard(), cfd.Wildcard()}},
			{[]int{d.w, d.x}, []int{d.y, d.z}, []cfd.Cell{first, cfd.Wildcard(), cfd.Wildcard(), cfd.Wildcard()}},
			{[]int{d.w}, []int{d.y}, []cfd.Cell{first, cfd.Const(r.Value(0, d.y))}},
		} {
			xs := make([]string, len(c.x))
			for i, col := range c.x {
				xs[i] = name(r, col)
			}
			ys := make([]string, len(c.y))
			for i, col := range c.y {
				ys[i] = name(r, col)
			}
			rule, err := cfd.New(s, xs, ys, c.cells)
			if err != nil {
				panic(err)
			}
			for _, v := range rule.Violations(r, 1000) {
				fmt.Fprintln(h, v.Rows, v.Msg)
			}
		}
	},
	"constant-cfds": func(h hash.Hash, d goldenDataset) {
		for _, opts := range []cfddisc.Options{{MinSupport: 3, MaxLHS: 2}, {MinSupport: 2, MaxLHS: 3}} {
			if d.r.Rows() > 100 && opts.MaxLHS > 2 {
				continue
			}
			for _, c := range cfddisc.DiscoverContext(context.Background(), d.r, opts).CFDs {
				fmt.Fprintln(h, c.String())
			}
		}
	},
	"tane-w1": func(h hash.Hash, d goldenDataset) { writeTane(h, d, 1) },
	"tane-w4": func(h hash.Hash, d goldenDataset) { writeTane(h, d, 4) },
	"stream-tane": func(h hash.Hash, d goldenDataset) {
		// Half the rows as the base batch, the rest in eighths, hashing
		// the session's ruleset after every batch.
		sess, err := stream.NewSession("tane", d.r.Schema(), stream.Options{Workers: 2})
		if err != nil {
			panic(err)
		}
		n := d.r.Rows()
		step := max(n/8, 1)
		for lo, hi := 0, n/2; lo < n; lo, hi = hi, min(hi+step, n) {
			rows := make([][]relation.Value, 0, hi-lo)
			for row := lo; row < hi; row++ {
				rows = append(rows, d.r.Tuple(row))
			}
			res, err := sess.AppendBatch(context.Background(), rows)
			if err != nil {
				panic(err)
			}
			fmt.Fprintln(h, res.TotalRows, res.Partial, res.Lines)
		}
	},
	"ctane": func(h hash.Hash, d goldenDataset) {
		opts := cfddisc.GeneralOptions{RHS: d.y, MinSupport: 3, MaxLHS: 2}
		if d.small {
			opts.RHS = -1
		}
		for _, c := range cfddisc.GeneralCFDs(d.r, opts) {
			fmt.Fprintln(h, c.String())
		}
	},
}

// writeTane hashes tane's output at the given worker count: exact,
// approximate (g3 ≤ 0.05), and sample-then-verify over half the rows.
func writeTane(h hash.Hash, d goldenDataset, workers int) {
	a, _ := registry.Lookup("tane")
	for _, o := range []registry.RunOptions{
		{Workers: workers},
		{Workers: workers, MaxErr: 0.05},
		{Workers: workers, SampleRows: max(d.r.Rows()/2, 1), SampleSeed: 3},
	} {
		fmt.Fprintln(h, a.Run(context.Background(), d.r, o).Text())
	}
}

// TestEqualityGolden checks every value-equality consumer, and tane and
// stream tane over the partition product, against the digests pinned in
// goldenEqualityDigests.
func TestEqualityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest sweep skipped in -short mode")
	}
	datasets := goldenDatasets()
	for fn, want := range goldenEqualityDigests {
		h := sha256.New()
		for _, d := range datasets {
			fmt.Fprintf(h, "== %s\n", d.name)
			goldenEqualityFuncs[fn](h, d)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: digest %s, want %s", fn, got, want)
		}
	}
}
