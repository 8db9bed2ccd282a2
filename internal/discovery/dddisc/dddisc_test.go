package dddisc

import (
	"context"
	"testing"

	"deptree/internal/deps/dd"
	"deptree/internal/gen"
	"deptree/internal/metric"
	"deptree/internal/relation"
)

func TestDiscoverOnTable6(t *testing.T) {
	// Target: address(≤5). The paper's dd1 uses name(≤1), street(≤5) —
	// single-attribute discovery should find valid thresholds for name and
	// street among others.
	r := gen.Table6()
	s := r.Schema()
	opts := Options{RHS: dd.F(s, "address", dd.OpLe, 5)}
	dds := DiscoverContext(context.Background(), r, opts).DDs
	if len(dds) == 0 {
		t.Fatal("no DDs discovered")
	}
	for _, d := range dds {
		if !d.Holds(r) {
			t.Errorf("discovered DD %v does not hold", d)
		}
		if _, conf := d.SupportConfidence(r); conf != 1 {
			t.Errorf("DD %v confidence %v != 1", d, conf)
		}
	}
}

func TestThresholdsAreMaximal(t *testing.T) {
	r := gen.Table6()
	s := r.Schema()
	opts := Options{RHS: dd.F(s, "address", dd.OpLe, 5), MaxThresholds: 16}
	for _, d := range DiscoverContext(context.Background(), r, opts).DDs {
		// Raising the threshold to the next candidate must break validity
		// or the DD was not maximal. Compare against a DD with a slightly
		// larger threshold from the candidate pool: simply check +1.
		looser := d
		looser.LHS = dd.Pattern{{
			Col:       d.LHS[0].Col,
			Metric:    d.LHS[0].Metric,
			Op:        dd.OpLe,
			Threshold: d.LHS[0].Threshold + 1,
		}}
		if _, conf := looser.SupportConfidence(r); conf == 1 {
			// Permissible when the next *observed* distance is beyond +1;
			// verify via holding: the looser DD must not also hold with
			// support strictly greater, otherwise the choice was not
			// maximal among candidates.
			sTight, _ := d.SupportConfidence(r)
			sLoose, _ := looser.SupportConfidence(r)
			if sLoose > sTight {
				t.Errorf("DD %v not maximal: +1 still valid with more support", d)
			}
		}
	}
}

func TestMinSupport(t *testing.T) {
	r := gen.Table6()
	s := r.Schema()
	opts := Options{RHS: dd.F(s, "address", dd.OpLe, 5), MinSupport: 3}
	for _, d := range DiscoverContext(context.Background(), r, opts).DDs {
		if support, _ := d.SupportConfidence(r); support < 3 {
			t.Errorf("DD %v support %d < 3", d, support)
		}
	}
}

func TestParameterFreeThresholds(t *testing.T) {
	// Row-pair distances 0,1,1,2,3,3,6,8,9,9: four evenly spaced ranks
	// pick 0, 2, 6 and 9.
	r := relation.New("d", relation.NewSchema(relation.Attribute{Name: "a", Kind: relation.KindInt}))
	for _, v := range []int{0, 0, 1, 3, 9} {
		if err := r.Append([]relation.Value{relation.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	ts := metric.NewTable(nil, r, metric.Absolute{}, 0).Thresholds(nil, 4)
	if len(ts) == 0 || ts[0] != 0 || ts[len(ts)-1] != 9 {
		t.Errorf("thresholds = %v, want to span [0,9]", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("thresholds not strictly increasing: %v", ts)
		}
	}
	one := r.Select(func(row int) bool { return row == 0 })
	if got := metric.NewTable(nil, one, metric.Absolute{}, 0).Thresholds(nil, 4); got != nil {
		t.Errorf("empty distances: %v", got)
	}
}

func TestTinyRelation(t *testing.T) {
	r := gen.Table6().Select(func(i int) bool { return i == 0 })
	opts := Options{RHS: dd.F(gen.Table6().Schema(), "address", dd.OpLe, 5)}
	if got := DiscoverContext(context.Background(), r, opts).DDs; got != nil {
		t.Errorf("single row: %v", got)
	}
}

func TestSyntheticDuplicates(t *testing.T) {
	// With near-duplicates injected, name similarity should imply region
	// similarity at some threshold.
	r := gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 12, DuplicateRate: 0.3})
	s := r.Schema()
	opts := Options{
		RHS:     dd.F(s, "region", dd.OpLe, 6),
		LHSCols: []int{s.MustIndex("address")},
	}
	dds := DiscoverContext(context.Background(), r, opts).DDs
	if len(dds) == 0 {
		t.Fatal("no DD for address → region similarity")
	}
	for _, d := range dds {
		if !d.Holds(r) {
			t.Errorf("DD %v does not hold", d)
		}
	}
}
