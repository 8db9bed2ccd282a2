package mddisc

import (
	"context"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/gen"
)

func TestDiscoverOnTable6(t *testing.T) {
	// md1's shape: street similarity should determine zip identification.
	r := gen.Table6()
	s := r.Schema()
	opts := Options{
		RHS:           []int{s.MustIndex("zip")},
		LHSCols:       []int{s.MustIndex("street"), s.MustIndex("address")},
		MinSupport:    0.05,
		MinConfidence: 1,
		Thresholds:    []float64{0, 1, 2, 3, 4, 5},
	}
	mds := DiscoverContext(context.Background(), r, opts).MDs
	if len(mds) == 0 {
		t.Fatal("no MDs discovered")
	}
	for _, m := range mds {
		support, conf := m.SupportConfidence(r)
		if support < 0.05 || conf < 1 {
			t.Errorf("MD %v: support=%v conf=%v", m, support, conf)
		}
	}
}

func TestFirstKApproximation(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 400, Seed: 13, DuplicateRate: 0.3})
	s := r.Schema()
	opts := Options{
		RHS:           []int{s.MustIndex("region")},
		LHSCols:       []int{s.MustIndex("address")},
		MinSupport:    0.0001,
		MinConfidence: 0.95,
	}
	exact := DiscoverContext(context.Background(), r, opts).MDs
	opts.FirstK = 150
	approx := DiscoverContext(context.Background(), r, opts).MDs
	// The approximation evaluates on a prefix; for stationary synthetic
	// data it should find the same LHS attributes.
	if len(exact) != len(approx) {
		t.Errorf("exact %v vs first-k %v", exact, approx)
	}
}

func TestRelativeCandidateKeys(t *testing.T) {
	// On clean hotels, address alone identifies region (address → region
	// holds), so {address} is an RCK for RHS {region}.
	r := gen.Hotels(gen.HotelConfig{Rows: 150, Seed: 14})
	s := r.Schema()
	addr := s.MustIndex("address")
	opts := Options{
		RHS:           []int{s.MustIndex("region")},
		LHSCols:       []int{s.MustIndex("name"), addr, s.MustIndex("star")},
		MinConfidence: 1,
	}
	keys := RelativeCandidateKeys(r, opts)
	foundAddr := false
	for _, k := range keys {
		if k == attrset.Single(addr) {
			foundAddr = true
		}
	}
	if !foundAddr {
		t.Errorf("RCKs = %v, want {address} among them", keys)
	}
	// Minimality: no key contains another.
	for i := range keys {
		for j := range keys {
			if i != j && keys[i].SubsetOf(keys[j]) {
				t.Errorf("key %v contains key %v", keys[j], keys[i])
			}
		}
	}
}

func TestRCKNeedsCombination(t *testing.T) {
	// star alone does not determine region, but star+address trivially
	// does (address suffices) — check a case where a pair is needed:
	// name+star where name alone is ambiguous due to duplicates.
	r := gen.Hotels(gen.HotelConfig{Rows: 150, Seed: 15, ErrorRate: 0.1})
	s := r.Schema()
	opts := Options{
		RHS:           []int{s.MustIndex("region")},
		LHSCols:       []int{s.MustIndex("star"), s.MustIndex("nights")},
		MinConfidence: 0.99,
	}
	keys := RelativeCandidateKeys(r, opts)
	// star/nights cannot identify region on errorful data: likely empty.
	for _, k := range keys {
		if k.Len() > 2 {
			t.Errorf("key %v larger than the candidate pool", k)
		}
	}
}

func TestDiscoveredThresholdIsMaximal(t *testing.T) {
	r := gen.Table6()
	s := r.Schema()
	opts := Options{
		RHS:           []int{s.MustIndex("zip")},
		LHSCols:       []int{s.MustIndex("street")},
		MinSupport:    0.01,
		MinConfidence: 1,
		Thresholds:    []float64{0, 1, 2, 3, 4, 5},
	}
	mds := DiscoverContext(context.Background(), r, opts).MDs
	if len(mds) != 1 {
		t.Fatalf("mds = %v", mds)
	}
	got := mds[0].LHS[0].MaxDist
	// street distances in r6: "12th St."/"12th Str" = 1 share zip; check
	// that the chosen threshold admits at least distance 1.
	if got < 1 {
		t.Errorf("threshold = %v, want ≥ 1", got)
	}
}

func TestDefaultLHSColumns(t *testing.T) {
	// Nil LHSCols defaults to every non-RHS column for both entry points.
	r := gen.Hotels(gen.HotelConfig{Rows: 40, Seed: 16})
	s := r.Schema()
	opts := Options{RHS: []int{s.MustIndex("region")}, MinSupport: 0.0001, MinConfidence: 1}
	mds := DiscoverContext(context.Background(), r, opts).MDs
	for _, m := range mds {
		if m.LHS[0].Col == s.MustIndex("region") {
			t.Errorf("RHS column leaked into LHS: %v", m)
		}
	}
	keys := RelativeCandidateKeys(r, opts)
	for _, k := range keys {
		if k.Has(s.MustIndex("region")) {
			t.Errorf("RHS column in RCK %v", k)
		}
	}
	if len(keys) == 0 {
		t.Error("clean data should have at least one RCK (address)")
	}
}
