package nedisc

import (
	"context"
	"testing"

	"deptree/internal/deps/ned"
	"deptree/internal/gen"
)

func TestDiscoverOnTable6(t *testing.T) {
	// Target: street^5 — the RHS of the paper's ned1.
	r := gen.Table6()
	s := r.Schema()
	opts := Options{
		RHS:           ned.Predicate{ned.T(s, "street", 5)},
		LHSCols:       []int{s.MustIndex("name"), s.MustIndex("address")},
		MinConfidence: 1,
	}
	neds := DiscoverContext(context.Background(), r, opts).NEDs
	if len(neds) == 0 {
		t.Fatal("no NEDs discovered")
	}
	for _, n := range neds {
		if !n.Holds(r) {
			t.Errorf("discovered NED %v does not hold", n)
		}
		if _, conf := n.SupportConfidence(r); conf < 1 {
			t.Errorf("NED %v confidence < 1", n)
		}
	}
	// A two-attribute predicate (the ned1 shape) must be among them.
	hasPair := false
	for _, n := range neds {
		if len(n.LHS) == 2 {
			hasPair = true
		}
	}
	if !hasPair {
		t.Errorf("no two-attribute LHS found: %v", neds)
	}
}

func TestMinSupportRespected(t *testing.T) {
	r := gen.Table6()
	s := r.Schema()
	opts := Options{
		RHS:        ned.Predicate{ned.T(s, "street", 5)},
		LHSCols:    []int{s.MustIndex("name")},
		MinSupport: 2,
	}
	for _, n := range DiscoverContext(context.Background(), r, opts).NEDs {
		if support, _ := n.SupportConfidence(r); support < 2 {
			t.Errorf("NED %v support %d < 2", n, support)
		}
	}
}

func TestMaxLHSOne(t *testing.T) {
	r := gen.Table6()
	s := r.Schema()
	opts := Options{
		RHS:     ned.Predicate{ned.T(s, "street", 5)},
		LHSCols: []int{s.MustIndex("name"), s.MustIndex("address")},
		MaxLHS:  1,
	}
	for _, n := range DiscoverContext(context.Background(), r, opts).NEDs {
		if len(n.LHS) != 1 {
			t.Errorf("NED %v wider than MaxLHS=1", n)
		}
	}
}

func TestPNeighborhoodImputation(t *testing.T) {
	// The §3.2.4 use: predict a region from address neighbors. Discovery
	// on synthetic duplicates should find an address-based NED for region.
	r := gen.Hotels(gen.HotelConfig{Rows: 80, Seed: 41, DuplicateRate: 0.3})
	s := r.Schema()
	opts := Options{
		RHS:           ned.Predicate{ned.T(s, "region", 4)},
		LHSCols:       []int{s.MustIndex("address")},
		MinConfidence: 1,
	}
	neds := DiscoverContext(context.Background(), r, opts).NEDs
	if len(neds) == 0 {
		t.Fatal("no address-based NED for region")
	}
}

func TestTinyRelation(t *testing.T) {
	r := gen.Table6().Select(func(i int) bool { return i == 0 })
	opts := Options{RHS: ned.Predicate{ned.T(gen.Table6().Schema(), "street", 5)}}
	if got := DiscoverContext(context.Background(), r, opts).NEDs; got != nil {
		t.Errorf("single row: %v", got)
	}
}
