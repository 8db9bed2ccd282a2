package cfd

import (
	"math"
	"math/rand"
	"testing"

	"deptree/internal/deps/fd"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestCFD1OnTable5(t *testing.T) {
	// cfd1: region=Jackson, name=_ -> address=_ (paper §2.5.1).
	r := gen.Table5()
	c := Must(r.Schema(), []string{"region", "name"}, []string{"address"},
		[]Cell{Const(relation.String("Jackson")), Wildcard(), Wildcard()})
	if !c.Holds(r) {
		t.Error("cfd1 must hold on r5 (t1, t2 share the Jackson Hyatt address)")
	}
	if got := c.Support(r); got != 2 {
		t.Errorf("support = %d, want 2 (t1, t2)", got)
	}
}

func TestCFDDetectsConditionalViolation(t *testing.T) {
	r := gen.Table5().Clone()
	// Corrupt t2's address so the Jackson condition is violated.
	addr := r.Schema().MustIndex("address")
	r.SetValue(1, addr, relation.String("999 Elsewhere"))
	c := Must(r.Schema(), []string{"region", "name"}, []string{"address"},
		[]Cell{Const(relation.String("Jackson")), Wildcard(), Wildcard()})
	vs := c.Violations(r, 0)
	if len(vs) != 1 || vs[0].Rows[0] != 0 || vs[0].Rows[1] != 1 {
		t.Fatalf("violations = %v, want pair (t1,t2)", vs)
	}
}

func TestConstantRHSPattern(t *testing.T) {
	// region=Jackson -> rate=230: t2 (rate 250) is a single-tuple violation.
	r := gen.Table5()
	c := Must(r.Schema(), []string{"region"}, []string{"rate"},
		[]Cell{Const(relation.String("Jackson")), Const(relation.Int(230))})
	vs := c.Violations(r, 0)
	// t2 fails the RHS pattern; also the pair (t1,t2) differs on rate.
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2", vs)
	}
	if len(vs[0].Rows) != 1 || vs[0].Rows[0] != 1 {
		t.Errorf("single-tuple violation = %v, want t2", vs[0])
	}
}

func TestFDEmbeddingEdge(t *testing.T) {
	// Fig 1 edge FD → CFD: all-wildcard pattern behaves exactly like the FD.
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 60; trial++ {
		r := gen.Categorical(25, []int{3, 3}, rng.Int63())
		f := fd.Must(r.Schema(), []string{"c0"}, []string{"c1"})
		c := FromFD(f.LHS.Cols(), f.RHS.Cols(), r.Schema())
		if f.Holds(r) != c.Holds(r) {
			t.Fatalf("trial %d: FD.Holds=%v but CFD(wildcards).Holds=%v",
				trial, f.Holds(r), c.Holds(r))
		}
		if c.Kind() != "CFD" {
			t.Fatal("wildcard CFD must not be extended")
		}
		if got := c.Support(r); got != r.Rows() {
			t.Fatalf("wildcard support = %d, want all rows", got)
		}
	}
	// Cells that spell one another once value keys are joined with a
	// separator byte, and Y classes of NaN and of signed zeros.
	s := relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindString},
		relation.Attribute{Name: "y", Kind: relation.KindFloat},
	)
	str, num := relation.String, relation.Float
	for _, rows := range [][][]relation.Value{
		{{str("x\x1fs:y"), str("z"), num(1)}, {str("x"), str("y\x1fs:z"), num(2)}},
		{{str("k"), str("k"), num(math.NaN())}, {str("k"), str("k"), num(math.NaN())}},
		{{str("k"), str("k"), num(0)}, {str("k"), str("k"), num(math.Copysign(0, -1))}},
	} {
		r := relation.MustFromRows("edge", s, rows)
		f := fd.Must(s, []string{"a", "b"}, []string{"y"})
		c := FromFD(f.LHS.Cols(), f.RHS.Cols(), s)
		if f.Holds(r) != c.Holds(r) {
			t.Fatalf("rows %v: FD.Holds=%v but CFD(wildcards).Holds=%v", rows, f.Holds(r), c.Holds(r))
		}
	}
}

func TestECFD1OnTable5(t *testing.T) {
	// ecfd1: rate≤200, name=_ -> address=_ (paper §2.5.5): holds on r5,
	// where only t3, t4 have rate ≤ 200 and they share the address.
	r := gen.Table5()
	e := Must(r.Schema(), []string{"rate", "name"}, []string{"address"},
		[]Cell{Pred(OpLe, relation.Int(200)), Wildcard(), Wildcard()})
	if e.Kind() != "eCFD" {
		t.Error("inequality pattern must make it an eCFD")
	}
	if !e.Holds(r) {
		t.Error("ecfd1 must hold on r5")
	}
	if got := e.Support(r); got != 2 {
		t.Errorf("support = %d, want 2 (t3, t4)", got)
	}
	// Break it: different address for t4 at the same rate.
	r2 := r.Clone()
	r2.SetValue(3, r.Schema().MustIndex("rate"), relation.Int(189))
	r2.SetValue(3, r.Schema().MustIndex("address"), relation.String("somewhere else"))
	if e.Holds(r2) {
		t.Error("ecfd1 must fail after corrupting t4")
	}
}

func TestDisjunctiveCell(t *testing.T) {
	r := gen.Table5()
	// region ∈ {Jackson, El Paso} as a disjunctive condition.
	cell := AnyOf(
		Cond{Op: OpEq, Const: relation.String("Jackson")},
		Cond{Op: OpEq, Const: relation.String("El Paso")},
	)
	c := Must(r.Schema(), []string{"region"}, []string{"name"},
		[]Cell{cell, Wildcard()})
	if got := c.Support(r); got != 3 {
		t.Errorf("support = %d, want 3 (t1, t2, t3)", got)
	}
	if !c.Extended() {
		t.Error("disjunction must make it extended")
	}
}

func TestOpEval(t *testing.T) {
	v200, v300 := relation.Int(200), relation.Int(300)
	cases := []struct {
		op   Op
		a, b relation.Value
		want bool
	}{
		{OpEq, v200, v200, true},
		{OpNe, v200, v300, true},
		{OpLt, v200, v300, true},
		{OpLe, v200, v200, true},
		{OpGt, v300, v200, true},
		{OpGe, v200, v300, false},
		{OpLt, relation.Null(relation.KindInt), v200, false},
		{OpEq, relation.Null(relation.KindInt), relation.Null(relation.KindInt), true},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestNewErrors(t *testing.T) {
	s := relation.Strings("a", "b")
	if _, err := New(s, []string{"zzz"}, []string{"b"}, []Cell{Wildcard(), Wildcard()}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := New(s, []string{"a"}, []string{"b"}, []Cell{Wildcard()}); err == nil {
		t.Error("short pattern should fail")
	}
}

func TestString(t *testing.T) {
	r := gen.Table5()
	c := Must(r.Schema(), []string{"region", "name"}, []string{"address"},
		[]Cell{Const(relation.String("Jackson")), Wildcard(), Wildcard()})
	if got := c.String(); got != "region=Jackson, name=_ -> address=_" {
		t.Errorf("String = %q", got)
	}
	e := Must(r.Schema(), []string{"rate"}, []string{"address"},
		[]Cell{Pred(OpLe, relation.Int(200)), Wildcard()})
	if got := e.String(); got != "rate(<=200) -> address=_" {
		t.Errorf("eCFD String = %q", got)
	}
}

func TestViolationLimit(t *testing.T) {
	r := gen.Table1()
	c := FromFD([]int{r.Schema().MustIndex("address")}, []int{r.Schema().MustIndex("region")}, r.Schema())
	if vs := c.Violations(r, 1); len(vs) != 1 {
		t.Errorf("limit 1: got %d", len(vs))
	}
	if vs := c.Violations(r, 0); len(vs) != 2 {
		t.Errorf("all: got %d, want 2", len(vs))
	}
}
