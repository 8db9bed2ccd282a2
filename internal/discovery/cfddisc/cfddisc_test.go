package cfddisc

import (
	"context"
	"testing"

	"deptree/internal/deps/cfd"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestConstantCFDsOnTable5(t *testing.T) {
	r := gen.Table5()
	cfds := DiscoverContext(context.Background(), r, Options{MinSupport: 2}).CFDs
	if len(cfds) == 0 {
		t.Fatal("no constant CFDs mined")
	}
	// Every mined CFD must hold and meet support.
	for _, c := range cfds {
		if !c.Holds(r) {
			t.Errorf("mined CFD %v does not hold", c)
		}
		if c.Support(r) < 2 {
			t.Errorf("mined CFD %v support < 2", c)
		}
	}
	// region=Jackson → rate is NOT constant (230 vs 250), so no such rule.
	for _, c := range cfds {
		s := c.String()
		if s == "region=Jackson -> rate=230" || s == "region=Jackson -> rate=250" {
			t.Errorf("inconsistent rule mined: %v", s)
		}
	}
	// name=Hyatt → nothing: all four tuples share name but no other column
	// is constant across them... region differs, address differs, rate
	// differs. Check none mined with LHS name only.
	for _, c := range cfds {
		if len(c.X) == 1 && r.Schema().Attr(c.X[0]).Name == "name" {
			t.Errorf("name=Hyatt implies nothing, got %v", c)
		}
	}
}

func TestConstantCFDsMinimality(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 80, Seed: 9})
	cfds := DiscoverContext(context.Background(), r, Options{MinSupport: 3, MaxLHS: 2}).CFDs
	// No rule's LHS pattern may contain another rule with the same
	// conclusion.
	for i, a := range cfds {
		for j, b := range cfds {
			if i == j {
				continue
			}
			if a.String() == b.String() {
				t.Errorf("duplicate rule %v", a)
			}
		}
	}
	for _, c := range cfds {
		if !c.Holds(r) {
			t.Errorf("mined CFD %v does not hold", c)
		}
	}
}

func TestGreedyTableauCoversCleanGroups(t *testing.T) {
	// Table 1: address → region has two violating groups (t3/t4 addr and
	// t5/t6 addr each split regions 50/50) and two clean ones.
	r := gen.Table1()
	x := []int{r.Schema().MustIndex("address")}
	a := r.Schema().MustIndex("region")
	tableau := GreedyTableau(r, x, a, 1.0, 1.0)
	// Admissible at conf=1: the two clean groups (t1/t2 and t7/t8 have
	// distinct addresses... t7 "No.7, West Lake Rd." and t8 "#7, West Lake
	// Rd." differ, so they are singleton groups). Groups: {t1,t2} clean,
	// {t3,t4} conf 0.5, {t5,t6} conf 0.5, {t7}, {t8} singletons conf 1.
	if len(tableau) != 3 {
		t.Fatalf("tableau size = %d, want 3 admissible patterns", len(tableau))
	}
	for _, c := range tableau {
		if !c.Holds(r) {
			t.Errorf("tableau row %v does not hold", c)
		}
	}
}

func TestGreedyTableauConfidence(t *testing.T) {
	// At conf=0.5 the dirty groups become admissible too.
	r := gen.Table1()
	x := []int{r.Schema().MustIndex("address")}
	a := r.Schema().MustIndex("region")
	tableau := GreedyTableau(r, x, a, 0.5, 1.0)
	if len(tableau) != 5 {
		t.Fatalf("tableau size = %d, want 5", len(tableau))
	}
	// Partial coverage stops early: the greedy picks largest groups first.
	partial := GreedyTableau(r, x, a, 0.5, 0.5)
	if len(partial) >= len(tableau) {
		t.Errorf("partial coverage should select fewer patterns (%d vs %d)", len(partial), len(tableau))
	}
}

func TestGreedyTableauEmpty(t *testing.T) {
	r := relation.New("e", relation.Strings("a", "b"))
	if got := GreedyTableau(r, []int{0}, 1, 1, 1); got != nil {
		t.Errorf("empty relation: %v", got)
	}
}

func TestConstantCFDsEmptyAndSmall(t *testing.T) {
	r := relation.New("e", relation.Strings("a", "b"))
	if got := DiscoverContext(context.Background(), r, Options{}).CFDs; got != nil {
		t.Errorf("empty relation: %v", got)
	}
	_ = r.Append([]relation.Value{relation.String("x"), relation.String("y")})
	if got := DiscoverContext(context.Background(), r, Options{MinSupport: 2}).CFDs; got != nil {
		t.Errorf("single row with support 2: %v", got)
	}
}

func TestConstantCFDsSupportThreshold(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 120, Seed: 10})
	for _, c := range DiscoverContext(context.Background(), r, Options{MinSupport: 5, MaxLHS: 1}).CFDs {
		if got := c.Support(r); got < 5 {
			t.Errorf("rule %v support %d < 5", c, got)
		}
	}
}

// TestConstantCFDsSeparatorPayloads: the patterns {c0=a, c1=b␟2:s:c}
// and {c0=a␟1:s:b, c2=c} are distinct, though their items spell the same
// string once joined with a separator byte, and each has its own minimal
// rule.
func TestConstantCFDsSeparatorPayloads(t *testing.T) {
	s := relation.Strings("c0", "c1", "c2", "c3")
	var rows [][]relation.Value
	for _, vs := range [][4]string{
		{"a", "b\x1f2:s:c", "c", "v"},
		{"a", "b\x1f2:s:c", "d", "v"},
		{"a", "q", "c", "w"},
		{"a", "q", "d", "w"},
		{"e", "b\x1f2:s:c", "c", "w"},
		{"e", "b\x1f2:s:c", "d", "w"},
		{"a\x1f1:s:b", "r", "c", "x"},
		{"a\x1f1:s:b", "t", "c", "x"},
		{"a\x1f1:s:b", "r2", "g", "y"},
		{"a\x1f1:s:b", "t2", "g", "y"},
	} {
		rows = append(rows, []relation.Value{
			relation.String(vs[0]), relation.String(vs[1]), relation.String(vs[2]), relation.String(vs[3]),
		})
	}
	r := relation.MustFromRows("sep", s, rows)
	ab := cfdString(s, []string{"c0", "c1"}, rows[0][:2], "c3", rows[0][3])
	ac := cfdString(s, []string{"c0", "c2"}, []relation.Value{rows[6][0], rows[6][2]}, "c3", rows[6][3])
	want := map[string]bool{ab: false, ac: false}
	for _, c := range DiscoverContext(context.Background(), r, Options{MinSupport: 2, MaxLHS: 2}).CFDs {
		if _, ok := want[c.String()]; ok {
			want[c.String()] = true
		}
		if !c.Holds(r) {
			t.Errorf("mined CFD %v does not hold", c)
		}
	}
	for rule, found := range want {
		if !found {
			t.Errorf("rule %q not mined", rule)
		}
	}
}

func cfdString(s *relation.Schema, x []string, consts []relation.Value, y string, a relation.Value) string {
	cells := make([]cfd.Cell, 0, len(consts)+1)
	for _, v := range consts {
		cells = append(cells, cfd.Const(v))
	}
	return cfd.Must(s, x, []string{y}, append(cells, cfd.Const(a))).String()
}
