package impute

import (
	"testing"

	"deptree/internal/deps/dd"
	"deptree/internal/deps/ned"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// holesIn nulls out the region of every k-th row and returns the modified
// clone plus the ground truth.
func holesIn(r *relation.Relation, target, k int) (*relation.Relation, map[int]relation.Value) {
	out := r.Clone()
	truth := map[int]relation.Value{}
	for i := 0; i < r.Rows(); i += k {
		truth[i] = r.Value(i, target)
		out.SetValue(i, target, relation.Null(r.Schema().Attr(target).Kind))
	}
	return out, truth
}

func TestPNeighborhoodRecoversRegions(t *testing.T) {
	// Clean hotels: address determines region, so address-neighbors vote
	// correctly.
	r := gen.Hotels(gen.HotelConfig{Rows: 200, Seed: 31})
	s := r.Schema()
	target := s.MustIndex("region")
	holed, truth := holesIn(r, target, 5)
	n := ned.NED{
		LHS:    ned.Predicate{ned.T(s, "address", 0), ned.T(s, "name", 1)},
		RHS:    ned.Predicate{ned.T(s, "region", 0)},
		Schema: s,
	}
	filled, count := PNeighborhood(holed, n, target)
	if count == 0 {
		t.Fatal("nothing imputed")
	}
	correct, wrong := 0, 0
	for row, want := range truth {
		got := filled.Value(row, target)
		if got.IsNull() {
			continue
		}
		if got.Equal(want) {
			correct++
		} else {
			wrong++
		}
	}
	if correct == 0 {
		t.Fatal("no correct imputations")
	}
	if wrong > correct/5 {
		t.Errorf("imputation accuracy too low: %d correct, %d wrong", correct, wrong)
	}
}

func TestPNeighborhoodLeavesUnmatchedNull(t *testing.T) {
	s := relation.Strings("key", "val")
	n := relation.Null(relation.KindString)
	r := relation.MustFromRows("u", s, [][]relation.Value{
		{relation.String("a"), n},
		{relation.String("zzzz"), relation.String("far")},
	})
	ned1 := ned.NED{
		LHS:    ned.Predicate{ned.T(s, "key", 0)},
		RHS:    ned.Predicate{ned.T(s, "val", 0)},
		Schema: s,
	}
	filled, count := PNeighborhood(r, ned1, 1)
	if count != 0 {
		t.Errorf("imputed %d without neighbors", count)
	}
	if !filled.Value(0, 1).IsNull() {
		t.Error("value invented from nothing")
	}
}

func TestDDEnrichedFillsMore(t *testing.T) {
	// The DD variant with a looser similarity gathers more candidates than
	// the strict NED on perturbed duplicates.
	r := gen.Hotels(gen.HotelConfig{Rows: 200, Seed: 32, DuplicateRate: 0.4})
	s := r.Schema()
	target := s.MustIndex("region")
	holed, _ := holesIn(r, target, 7)
	strict := ned.NED{
		LHS:    ned.Predicate{ned.T(s, "address", 0)},
		RHS:    ned.Predicate{ned.T(s, "region", 0)},
		Schema: s,
	}
	_, strictCount := PNeighborhood(holed, strict, target)
	loose := dd.DD{
		LHS:    dd.Pattern{dd.F(s, "address", dd.OpLe, 4)},
		RHS:    dd.Pattern{dd.F(s, "region", dd.OpLe, 0)},
		Schema: s,
	}
	_, looseCount := DDEnriched(holed, loose, target)
	if looseCount < strictCount {
		t.Errorf("DD enrichment filled fewer cells: %d vs %d", looseCount, strictCount)
	}
	if looseCount == 0 {
		t.Error("DD enrichment filled nothing")
	}
}

func TestMajorityDeterministic(t *testing.T) {
	var b ballot
	for _, s := range []string{"b", "a", "b", "a"} {
		b.vote(relation.String(s))
	}
	v, ok := b.winner()
	if !ok || !v.Equal(relation.String("a")) {
		t.Errorf("tie should break to the lexicographically first key, got %v", v)
	}
	var empty ballot
	if _, ok := empty.winner(); ok {
		t.Error("empty votes must fail")
	}
}
