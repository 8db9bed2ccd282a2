package fastfd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// oracleAgreeSets is the definition the agree-set sweep is checked
// against: every row pair, compared on every column, keeping each
// nonempty agree set.
func oracleAgreeSets(r *relation.Relation) map[attrset.Set]bool {
	n := r.Cols()
	codes := make([][]int, n)
	for c := 0; c < n; c++ {
		codes[c], _ = r.Codes(c)
	}
	out := make(map[attrset.Set]bool)
	for i := 0; i < r.Rows(); i++ {
		for j := i + 1; j < r.Rows(); j++ {
			var ag attrset.Set
			for col := 0; col < n; col++ {
				if codes[col][i] == codes[col][j] {
					ag = ag.Add(col)
				}
			}
			if !ag.IsEmpty() {
				out[ag] = true
			}
		}
	}
	return out
}

// oracleFDs is the FD list DiscoverContext builds from the oracle's agree
// sets: every RHS searched in order, then sorted by (LHS, RHS).
func oracleFDs(r *relation.Relation) []fd.FD {
	var list []attrset.Set
	for ag := range oracleAgreeSets(r) {
		list = append(list, ag)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	var out []fd.FD
	for a := 0; a < r.Cols(); a++ {
		out = append(out, rhsFDs(r, list, a, nil)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LHS != out[j].LHS {
			return out[i].LHS < out[j].LHS
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

// bytesRelation builds a relation from data: the first byte picks the
// column count (1–5) and each column's kind, every further byte one cell.
// Domains are tiny, so nulls, NaN payloads, ±0, duplicate rows and
// constant columns are all frequent.
func bytesRelation(data []byte, maxRows int) *relation.Relation {
	if len(data) == 0 {
		return nil
	}
	head := data[0]
	data = data[1:]
	ncols := 1 + int(head)%5
	attrs := make([]relation.Attribute, ncols)
	for c := range attrs {
		attrs[c] = relation.Attribute{Name: string(rune('a' + c)), Kind: relation.KindString}
		if head>>(3+c)&1 == 1 {
			attrs[c].Kind = relation.KindFloat
		}
	}
	floats := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), 0, math.Copysign(0, -1), 1.5, 2, -1}
	r := relation.New("bytes", relation.NewSchema(attrs...))
	row := make([]relation.Value, ncols)
	for len(data) >= ncols && r.Rows() < maxRows {
		for c := range row {
			b := data[c]
			switch {
			case b%8 == 0:
				row[c] = relation.Null(attrs[c].Kind)
			case attrs[c].Kind == relation.KindFloat:
				row[c] = relation.Float(floats[int(b>>3)%len(floats)])
			default:
				row[c] = relation.String(string(rune('p' + int(b>>3)%4)))
			}
		}
		data = data[ncols:]
		if err := r.Append(row); err != nil {
			panic(err) // kinds follow the schema: cannot fail
		}
	}
	return r
}

// randomRelation draws a bytesRelation from rng; every cell byte is one
// of a few values, so rows repeat often. A constant column rides along
// when the draw asks for one.
func randomRelation(rng *rand.Rand, rows int) *relation.Relation {
	data := make([]byte, 1+6*rows)
	rng.Read(data)
	for i := 1; i < len(data); i++ {
		data[i] %= 24
	}
	r := bytesRelation(data, rows)
	if rng.Intn(2) == 0 {
		return r
	}
	s := relation.NewSchema(append(r.Schema().Attrs(), relation.Attribute{Name: "k", Kind: relation.KindString})...)
	out := relation.New("random", s)
	for i := 0; i < r.Rows(); i++ {
		if err := out.Append(append(r.Tuple(i), relation.String("k"))); err != nil {
			panic(err)
		}
	}
	return out
}

// differentialRelations are the shapes the sweep is checked on: hotel
// relations with variety, errors and duplicates, and random relations.
func differentialRelations() []*relation.Relation {
	rels := []*relation.Relation{
		gen.Table1(),
		gen.Hotels(gen.HotelConfig{Rows: 300, Seed: 7, ErrorRate: 0.02, VarietyRate: 0.05, DuplicateRate: 0.1}),
		gen.Hotels(gen.HotelConfig{Rows: 120, Seed: 3, ErrorRate: 0.2, VarietyRate: 0.3, DuplicateRate: 0.3}),
	}
	rng := rand.New(rand.NewSource(19))
	for _, rows := range []int{0, 1, 2, 9, 60, 250} {
		for k := 0; k < 3; k++ {
			rels = append(rels, randomRelation(rng, rows))
		}
	}
	return append(rels, wideRelation(rng, 16, 300))
}

// wideRelation draws cols two-valued columns over rows rows: thousands
// of distinct agree sets, many more than the sweep's filter has slots,
// so filter collisions are frequent.
func wideRelation(rng *rand.Rand, cols, rows int) *relation.Relation {
	attrs := make([]relation.Attribute, cols)
	for c := range attrs {
		attrs[c] = relation.Attribute{Name: fmt.Sprintf("c%d", c), Kind: relation.KindInt}
	}
	r := relation.New("wide", relation.NewSchema(attrs...))
	row := make([]relation.Value, cols)
	for i := 0; i < rows; i++ {
		for c := range row {
			row[c] = relation.Int(rng.Intn(2))
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

func checkAgreeSets(t *testing.T, r *relation.Relation) {
	t.Helper()
	pool := engine.Exec{Workers: 1}.Pool(context.Background())
	defer pool.Close()
	got, err := agreeSets(r, pool)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleAgreeSets(r)
	if len(got) != len(want) {
		t.Fatalf("%d×%d: %d agree sets, oracle %d\n got: %v\nwant: %v", r.Rows(), r.Cols(), len(got), len(want), got, want)
	}
	for ag := range want {
		if !got[ag] {
			t.Fatalf("%d×%d: agree set %v missing", r.Rows(), r.Cols(), ag)
		}
	}
}

// TestAgreeSetsMatchOracle: the single-visit sweep finds exactly the
// oracle's agree sets.
func TestAgreeSetsMatchOracle(t *testing.T) {
	for _, r := range differentialRelations() {
		checkAgreeSets(t, r)
	}
}

// TestDiscoverMatchesOracle: at workers 1 and 4 the FD list equals the
// one built from the oracle's agree sets, in order.
func TestDiscoverMatchesOracle(t *testing.T) {
	for ri, r := range differentialRelations() {
		want := oracleFDs(r)
		for _, workers := range []int{1, 4} {
			got := DiscoverContext(context.Background(), r, Options{Exec: engine.Exec{Workers: workers}}).FDs
			if len(got) != len(want) {
				t.Fatalf("relation %d workers %d: %d FDs, oracle %d\n got: %v\nwant: %v", ri, workers, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].LHS != want[i].LHS || got[i].RHS != want[i].RHS || got[i].Schema != want[i].Schema {
					t.Fatalf("relation %d workers %d: FD %d = %v, oracle %v", ri, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAgreeSetsHonorDeadline: a constant column puts every pair in one
// class, so the sweep must poll inside the class; a 50 ms deadline ends
// the run long before the 50M-pair sweep could finish.
func TestAgreeSetsHonorDeadline(t *testing.T) {
	const rows = 10000
	r := relation.New("const", relation.NewSchema(
		relation.Attribute{Name: "k", Kind: relation.KindString},
		relation.Attribute{Name: "id", Kind: relation.KindInt},
	))
	for i := 0; i < rows; i++ {
		if err := r.Append([]relation.Value{relation.String("k"), relation.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res := DiscoverContext(context.Background(), r, Options{Exec: engine.Exec{Budget: engine.Budget{Timeout: 50 * time.Millisecond}}})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("run took %v under a 50ms deadline", elapsed)
	}
	if !res.Partial || res.Reason != "deadline" {
		t.Fatalf("result = %+v, want Partial with reason deadline", res)
	}
}

// FuzzAgreeSetsMatchOracle: the single-visit sweep equals the oracle on
// arbitrary small relations.
func FuzzAgreeSetsMatchOracle(f *testing.F) {
	f.Add([]byte{0x03, 1, 9, 17, 1, 9, 25, 0, 9, 17})
	f.Add([]byte{0x1c, 8, 16, 8, 16, 0, 0, 24, 24, 8, 8, 16, 16})
	f.Add([]byte{0xf4, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r := bytesRelation(data, 40); r != nil {
			checkAgreeSets(t, r)
		}
	})
}
