package pfddisc

import (
	"context"
	"math"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestDiscoverOnTable5(t *testing.T) {
	// P(address→region) = 3/4 on r5: discovered at p=0.75, not at p=0.8.
	r := gen.Table5()
	addr := r.Schema().MustIndex("address")
	region := r.Schema().MustIndex("region")
	got := DiscoverContext(context.Background(), r, Options{MinProb: 0.75}).PFDs
	found := false
	for _, p := range got {
		if p.LHS.Has(addr) && p.RHS.Has(region) {
			found = true
		}
	}
	if !found {
		t.Errorf("address →_0.75 region not discovered: %v", got)
	}
	got = DiscoverContext(context.Background(), r, Options{MinProb: 0.8}).PFDs
	for _, p := range got {
		if p.LHS.Has(addr) && p.RHS.Has(region) {
			t.Error("address → region must not pass p=0.8")
		}
	}
}

func TestDiscoveredPFDsMeetThreshold(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 200, Seed: 3, ErrorRate: 0.1})
	for _, p := range DiscoverContext(context.Background(), r, Options{MinProb: 0.9}).PFDs {
		if got := p.Probability(r); got < 0.9 {
			t.Errorf("PFD %v has P=%v < 0.9", p, got)
		}
	}
}

func TestMaxLHSLattice(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 100, Seed: 4})
	for _, p := range DiscoverContext(context.Background(), r, Options{MinProb: 0.99, MaxLHS: 2}).PFDs {
		if p.LHS.Len() > 2 {
			t.Errorf("PFD %v exceeds MaxLHS", p)
		}
	}
}

func TestMergeSources(t *testing.T) {
	// Weighted average of per-source probabilities.
	got := MergeSources([]SourceProbability{
		{Rows: 100, Prob: 1.0},
		{Rows: 100, Prob: 0.5},
	})
	if got != 0.75 {
		t.Errorf("merge = %v, want 0.75", got)
	}
	if MergeSources(nil) != 1 {
		t.Error("empty merge must be vacuous 1")
	}
	got = MergeSources([]SourceProbability{
		{Rows: 300, Prob: 0.9},
		{Rows: 100, Prob: 0.5},
	})
	if math.Abs(got-0.8) > 1e-12 {
		t.Errorf("weighted merge = %v, want 0.8", got)
	}
}

func TestDiscoverMultiSource(t *testing.T) {
	r := gen.Table6()
	src := r.Schema().MustIndex("source")
	got := DiscoverMultiSource(r, src, Options{MinProb: 0.9})
	// price → tax holds exactly within each source (same values repeat).
	price := r.Schema().MustIndex("price")
	tax := r.Schema().MustIndex("tax")
	found := false
	for _, p := range got {
		if p.LHS.Has(price) && p.RHS.Has(tax) {
			found = true
		}
		if p.LHS.Has(src) || p.RHS.Has(src) {
			t.Errorf("source column leaked into %v", p)
		}
	}
	if !found {
		t.Errorf("price → tax not discovered across sources: %v", got)
	}
}

func TestEmptyRelation(t *testing.T) {
	r := relation.New("e", relation.Strings("a", "b"))
	if got := DiscoverContext(context.Background(), r, Options{}).PFDs; got != nil {
		t.Errorf("empty relation: %v", got)
	}
	if got := DiscoverMultiSource(r, 0, Options{}); got != nil {
		t.Errorf("empty multi-source: %v", got)
	}
}
