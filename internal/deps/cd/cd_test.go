package cd

import (
	"math/rand"
	"testing"

	"deptree/internal/deps/ned"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// cd1 is the paper's §3.4.1 example over the dataspace fixture:
// θ(region, city) → θ(addr, post). The paper quotes post/post distance 5;
// exact Levenshtein gives 6, so the jj threshold is 6 here — the semantics
// under test (synonym-slot matching) are unchanged.
func cd1(r *relation.Relation) CD {
	s := r.Schema()
	return CD{
		LHS:    []SimilarityFunc{Theta(s, "region", "city", 5, 5, 5)},
		RHS:    Theta(s, "addr", "post", 7, 9, 6),
		Schema: s,
	}
}

func TestCD1OnDataspace(t *testing.T) {
	r := gen.Dataspace()
	c := cd1(r)
	// t1/t2: region vs city "Petersburg"/"St Petersburg" distance 3 ≤ 5.
	if !c.LHS[0].Similar(r, 0, 1) {
		t.Error("t1/t2 must agree on θ(region, city)")
	}
	// t1/t2 RHS: addr vs post identical → similar.
	if !c.RHS.Similar(r, 0, 1) {
		t.Error("t1/t2 must agree on θ(addr, post)")
	}
	// t2/t3: city(t2) vs region(t3) identical → similar on LHS.
	if !c.LHS[0].Similar(r, 1, 2) {
		t.Error("t2/t3 must agree on θ(region, city) via the ij slot")
	}
	if !c.Holds(r) {
		t.Errorf("cd1 must hold; violations: %v", c.Violations(r, 0))
	}
}

func TestCDViolation(t *testing.T) {
	r := gen.Dataspace().Clone()
	// Push t3's post far away: the (t2,t3) pair still agrees on the LHS
	// but now misses every RHS slot.
	r.SetValue(2, r.Schema().MustIndex("post"), relation.String("Totally Unrelated Address 42"))
	c := cd1(r)
	vs := c.Violations(r, 0)
	// Both (t1,t3) (similar regions via the ii slot) and (t2,t3) (city/region
	// ij slot) lose their RHS similarity.
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want (t1,t3) and (t2,t3)", vs)
	}
	if vs[0].Rows[0] != 0 || vs[0].Rows[1] != 2 || vs[1].Rows[0] != 1 || vs[1].Rows[1] != 2 {
		t.Fatalf("violations = %v, want (t1,t3) and (t2,t3)", vs)
	}
	if vs := c.Violations(r, 1); len(vs) != 1 {
		t.Error("limit not respected")
	}
}

func TestNullsNeverSimilar(t *testing.T) {
	r := gen.Dataspace()
	c := cd1(r)
	// t1 has null city, t3 has null city: the jj slot must not match nulls.
	f := c.LHS[0]
	if f.Similar(r, 0, 0) && r.Value(0, r.Schema().MustIndex("city")).IsNull() &&
		!f.Similar(r, 0, 0) {
		t.Error("unreachable")
	}
	s := relation.Strings("a", "b")
	rr := relation.MustFromRows("n", s, [][]relation.Value{
		{relation.Null(relation.KindString), relation.Null(relation.KindString)},
		{relation.Null(relation.KindString), relation.Null(relation.KindString)},
	})
	g := SimilarityFunc{I: 0, J: 1, Metric: nullMetric{}, TII: 100, TIJ: 100, TJJ: 100}
	if g.Similar(rr, 0, 1) {
		t.Error("null values must never be similar")
	}
}

type nullMetric struct{}

func (nullMetric) Distance(a, b relation.Value) float64 { return 0 }
func (nullMetric) Name() string                         { return "zero" }

func TestNEDEmbeddingEdge(t *testing.T) {
	// Fig 1 edge NED → CD: single-attribute similarity functions.
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 50; trial++ {
		r := gen.Hotels(gen.HotelConfig{Rows: 15, Seed: rng.Int63(), VarietyRate: 0.4, ErrorRate: 0.2})
		s := r.Schema()
		n := ned.NED{
			LHS:    ned.Predicate{ned.T(s, "address", 0)},
			RHS:    ned.Predicate{ned.T(s, "region", 4)},
			Schema: s,
		}
		c, err := FromNED(n)
		if err != nil {
			t.Fatal(err)
		}
		if n.Holds(r) != c.Holds(r) {
			t.Fatalf("trial %d: NED.Holds=%v but CD.Holds=%v", trial, n.Holds(r), c.Holds(r))
		}
	}
}

func TestFromNEDRejectsMultiRHS(t *testing.T) {
	r := gen.Table6()
	s := r.Schema()
	n := ned.NED{
		LHS:    ned.Predicate{ned.T(s, "name", 1)},
		RHS:    ned.Predicate{ned.T(s, "street", 5), ned.T(s, "zip", 0)},
		Schema: s,
	}
	if _, err := FromNED(n); err == nil {
		t.Error("multi-attribute RHS must be rejected")
	}
}

func TestG3(t *testing.T) {
	r := gen.Dataspace().Clone()
	r.SetValue(2, r.Schema().MustIndex("post"), relation.String("Totally Unrelated Address 42"))
	c := cd1(r)
	// One violating pair: removing one tuple of three fixes it.
	if got := c.G3(r); got != 1.0/3 {
		t.Errorf("g3 = %v, want 1/3", got)
	}
	clean := gen.Dataspace()
	if got := cd1(clean).G3(clean); got != 0 {
		t.Errorf("clean g3 = %v, want 0", got)
	}
	empty := clean.Select(func(int) bool { return false })
	if got := cd1(empty).G3(empty); got != 0 {
		t.Errorf("empty g3 = %v", got)
	}
}

func TestStringAndKind(t *testing.T) {
	r := gen.Dataspace()
	c := cd1(r)
	if c.Kind() != "CD" {
		t.Error("Kind")
	}
	if got := c.String(); got != "θ(region,city)[5,5,5] -> θ(addr,post)[7,9,6]" {
		t.Errorf("String = %q", got)
	}
	single := Single(r.Schema(), "name", 2)
	if got := single.String(r.Schema().Names()); got != "θ(name≈2)" {
		t.Errorf("Single String = %q", got)
	}
}

// TestG3TiesBreakByLowestRow: x = 1..5 within 1 of its neighbours and y
// = 100·x never equal, so the violating pairs form the path 0-1-2-3-4.
// Rows 1, 2 and 3 tie at degree 2; removing row 1 first leaves 2-3-4, then
// row 3 covers it, so g3 is 2/5 on every call. Picking the tie by map
// order used to return 3/5 whenever row 2 came first.
func TestG3TiesBreakByLowestRow(t *testing.T) {
	r := relation.New("path", relation.NewSchema(
		relation.Attribute{Name: "x", Kind: relation.KindInt},
		relation.Attribute{Name: "y", Kind: relation.KindInt}))
	for x := 1; x <= 5; x++ {
		if err := r.Append([]relation.Value{relation.Int(x), relation.Int(100 * x)}); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Schema()
	c := CD{LHS: []SimilarityFunc{Single(s, "x", 1)}, RHS: Single(s, "y", 0), Schema: s}
	for i := 0; i < 200; i++ {
		if got := c.G3(r); got != 0.4 {
			t.Fatalf("call %d: g3 = %v, want 0.4", i, got)
		}
	}
}
