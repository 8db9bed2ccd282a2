package ffddisc

import (
	"context"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/metric"
	"deptree/internal/relation"
)

func TestDiscoverFindsCrispFDs(t *testing.T) {
	// With crisp resemblances, FFD discovery degenerates to FD discovery:
	// address→region holds on clean hotels and must be found.
	r := gen.Hotels(gen.HotelConfig{Rows: 40, Seed: 91})
	s := r.Schema()
	res := map[int]metric.Resemblance{}
	for c := 0; c < s.Len(); c++ {
		res[c] = metric.CrispEqual{}
	}
	ffds := DiscoverContext(context.Background(), r, Options{Resemblances: res, MaxLHS: 1}).FFDs
	found := false
	for _, f := range ffds {
		if !f.Holds(r) {
			t.Errorf("discovered FFD %v does not hold", f)
		}
		if f.String() == "address ~> region" {
			found = true
		}
	}
	if !found {
		t.Errorf("address ~> region missing: %v", ffds)
	}
}

func TestDiscoverFuzzyOnTable6(t *testing.T) {
	// With the paper's resemblances, FFD discovery on r6 must not return
	// name,price ~> tax (the §3.6.1 conflict) but may return others.
	r := gen.Table6()
	s := r.Schema()
	res := map[int]metric.Resemblance{
		s.MustIndex("price"): metric.InverseNumeric{Beta: 1},
		s.MustIndex("tax"):   metric.InverseNumeric{Beta: 10},
	}
	ffds := DiscoverContext(context.Background(), r, Options{Resemblances: res, MaxLHS: 2}).FFDs
	for _, f := range ffds {
		if !f.Holds(r) {
			t.Errorf("discovered FFD %v does not hold", f)
		}
		if f.String() == "name,price ~> tax" {
			t.Error("the ffd1 conflict of §3.6.1 was discovered as valid")
		}
	}
}

func TestDiscoverMinimality(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 30, Seed: 93})
	ffds := DiscoverContext(context.Background(), r, Options{MaxLHS: 2}).FFDs
	// No 2-attribute FFD may coexist with a valid 1-attribute sub-FFD on
	// the same RHS (pruning guarantee).
	single := map[[2]int]bool{}
	for _, f := range ffds {
		if len(f.LHS) == 1 {
			single[[2]int{f.LHS[0].Col, f.RHS[0].Col}] = true
		}
	}
	for _, f := range ffds {
		if len(f.LHS) != 2 {
			continue
		}
		for _, a := range f.LHS {
			if single[[2]int{a.Col, f.RHS[0].Col}] {
				t.Errorf("non-minimal FFD %v: sub-FFD on column %d already valid", f, a.Col)
			}
		}
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 25, Seed: 95, ErrorRate: 0.2})
	inc := NewIncremental(r.Schema(), Options{})
	for i := 0; i < r.Rows(); i++ {
		if err := inc.AddTuple(r.Tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch := DiscoverContext(context.Background(), r, Options{MaxLHS: 1}).FFDs
	got := map[string]bool{}
	for _, f := range inc.Current() {
		got[f.String()] = true
		if !f.Holds(inc.Relation()) {
			t.Errorf("incremental survivor %v does not hold", f)
		}
	}
	want := map[string]bool{}
	for _, f := range batch {
		want[f.String()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("incremental %v != batch %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("incremental missing %s", k)
		}
	}
}

func TestIncrementalErrors(t *testing.T) {
	inc := NewIncremental(relation.Strings("a", "b"), Options{})
	if err := inc.AddTuple([]relation.Value{relation.String("x")}); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestTinyRelation(t *testing.T) {
	r := gen.Table6().Select(func(i int) bool { return i == 0 })
	if got := DiscoverContext(context.Background(), r, Options{}).FFDs; got != nil {
		t.Errorf("single row: %v", got)
	}
}
