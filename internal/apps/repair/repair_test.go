package repair

import (
	"fmt"
	"math"
	"testing"

	"deptree/internal/deps"
	"deptree/internal/deps/dc"
	"deptree/internal/deps/fd"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestFDRepairTable1(t *testing.T) {
	// Repairing fd1 on Table 1: each conflicting address group becomes
	// uniform on region.
	r := gen.Table1()
	f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
	res := FDRepair(r, []fd.FD{f})
	if !f.Holds(res.Repaired) {
		t.Fatal("repair does not satisfy fd1")
	}
	if len(res.Changes) == 0 {
		t.Fatal("no changes recorded")
	}
	// Exactly 2 cells change (one per conflicting pair) — minimal here.
	if len(res.Changes) != 2 {
		t.Errorf("changes = %d, want 2: %v", len(res.Changes), res.Changes)
	}
	// Original untouched.
	if f.Holds(r) {
		t.Error("original mutated")
	}
}

func TestFDRepairFixpointAcrossFDs(t *testing.T) {
	// Repairing one FD can violate another; the engine iterates.
	s := relation.Strings("a", "b", "c")
	r := relation.MustFromRows("x", s, [][]relation.Value{
		{relation.String("1"), relation.String("p"), relation.String("u")},
		{relation.String("1"), relation.String("q"), relation.String("v")},
		{relation.String("2"), relation.String("q"), relation.String("w")},
	})
	f1 := fd.Must(s, []string{"a"}, []string{"b"})
	f2 := fd.Must(s, []string{"b"}, []string{"c"})
	res := FDRepair(r, []fd.FD{f1, f2})
	if !f1.Holds(res.Repaired) || !f2.Holds(res.Repaired) {
		t.Errorf("fixpoint repair failed:\n%v", res.Repaired)
	}
}

func TestFDRepairNoChangesWhenClean(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 50, Seed: 1})
	f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
	res := FDRepair(r, []fd.FD{f})
	if len(res.Changes) != 0 {
		t.Errorf("clean instance changed: %v", res.Changes)
	}
}

func TestFDRepairMajorityWins(t *testing.T) {
	s := relation.Strings("x", "y")
	r := relation.MustFromRows("m", s, [][]relation.Value{
		{relation.String("k"), relation.String("good")},
		{relation.String("k"), relation.String("good")},
		{relation.String("k"), relation.String("bad")},
	})
	f := fd.Must(s, []string{"x"}, []string{"y"})
	res := FDRepair(r, []fd.FD{f})
	if len(res.Changes) != 1 || res.Changes[0].Row != 2 {
		t.Fatalf("changes = %v, want only t3", res.Changes)
	}
	if !res.Repaired.Value(2, 1).Equal(relation.String("good")) {
		t.Error("majority value not applied")
	}
	// NaN and signed-zero classes: every NaN is one value, -0 and +0 are
	// two. Only the minority cell changes, and the FD then holds.
	ns := relation.NewSchema(relation.Attribute{Name: "k"}, relation.Attribute{Name: "v", Kind: relation.KindFloat})
	nf := fd.Must(ns, []string{"k"}, []string{"v"})
	k, num := relation.String("a"), relation.Float
	for _, tc := range []struct {
		vals []float64
		want string
	}{
		{[]float64{math.NaN(), math.NaN(), 1}, "[t3.1: 1 -> NaN]"},
		{[]float64{0, 0, math.Copysign(0, -1)}, "[t3.1: -0 -> 0]"},
		{[]float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}, "[t2.1: 0 -> -0]"},
	} {
		rows := make([][]relation.Value, len(tc.vals))
		for i, v := range tc.vals {
			rows[i] = []relation.Value{k, num(v)}
		}
		res := FDRepair(relation.MustFromRows("n", ns, rows), []fd.FD{nf})
		if got := fmt.Sprint(res.Changes); got != tc.want {
			t.Errorf("%v: changes %s, want %s", tc.vals, got, tc.want)
		}
		if vs := nf.Violations(res.Repaired, 0); len(vs) != 0 {
			t.Errorf("%v: violations after repair: %v", tc.vals, vs)
		}
	}
}

func TestHolisticDCRepairNumeric(t *testing.T) {
	// dc1 violated: t1 pays more taxes than t2 despite a lower subtotal.
	r := gen.Table7().Clone()
	r.SetValue(0, r.Schema().MustIndex("taxes"), relation.Int(100))
	sub := r.Schema().MustIndex("subtotal")
	tax := r.Schema().MustIndex("taxes")
	d := dc.DC{
		Predicates: []dc.Predicate{
			dc.P(dc.Attr(dc.Alpha, sub), dc.OpLt, dc.Attr(dc.Beta, sub)),
			dc.P(dc.Attr(dc.Alpha, tax), dc.OpGt, dc.Attr(dc.Beta, tax)),
		},
		Schema: r.Schema(),
	}
	if d.Holds(r) {
		t.Fatal("sanity: DC must be violated")
	}
	res := HolisticDCRepair(r, []dc.DC{d}, 0)
	if !d.Holds(res.Repaired) {
		t.Errorf("holistic repair failed; changes: %v\n%v", res.Changes, res.Repaired)
	}
	if len(res.Changes) == 0 {
		t.Error("no changes recorded")
	}
}

func TestHolisticDCRepairConstant(t *testing.T) {
	// Single-tuple DC: Chicago hotels must cost ≥ 200.
	r := gen.Table1().Clone()
	s := r.Schema()
	r.SetValue(4, s.MustIndex("price"), relation.Int(100))
	d := dc.DC{
		Predicates: []dc.Predicate{
			dc.P(dc.Attr(dc.Alpha, s.MustIndex("region")), dc.OpEq, dc.Const(relation.String("Chicago"))),
			dc.P(dc.Attr(dc.Alpha, s.MustIndex("price")), dc.OpLt, dc.Const(relation.Int(200))),
		},
		Schema: s,
	}
	res := HolisticDCRepair(r, []dc.DC{d}, 0)
	if !d.Holds(res.Repaired) {
		t.Errorf("constant DC repair failed: %v", res.Changes)
	}
}

func TestHolisticRespectsualBudget(t *testing.T) {
	r := gen.Table7().Clone()
	r.SetValue(0, r.Schema().MustIndex("taxes"), relation.Int(100))
	sub := r.Schema().MustIndex("subtotal")
	tax := r.Schema().MustIndex("taxes")
	d := dc.DC{
		Predicates: []dc.Predicate{
			dc.P(dc.Attr(dc.Alpha, sub), dc.OpLt, dc.Attr(dc.Beta, sub)),
			dc.P(dc.Attr(dc.Alpha, tax), dc.OpGt, dc.Attr(dc.Beta, tax)),
		},
		Schema: r.Schema(),
	}
	res := HolisticDCRepair(r, []dc.DC{d}, 1)
	if len(res.Changes) > 1 {
		t.Errorf("budget exceeded: %v", res.Changes)
	}
}

func TestVerifyAndCost(t *testing.T) {
	r := gen.Table1()
	f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
	res := FDRepair(r, []fd.FD{f})
	if !Verify(res.Repaired, []deps.Dependency{f}) {
		t.Error("Verify on repaired instance")
	}
	if Verify(r, []deps.Dependency{f}) {
		t.Error("Verify on dirty instance")
	}
	if Cost(res) != len(res.Changes) {
		t.Error("Cost mismatch")
	}
}
