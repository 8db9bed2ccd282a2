package sddisc

import (
	"context"
	"testing"

	"deptree/internal/deps/sd"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestFitIntervalCleanSeries(t *testing.T) {
	r := gen.Series(200, 9, 11, 0, 31)
	g := FitInterval(r, []int{0}, 1, 1.0)
	if g.Lo < 9 || g.Hi > 11 {
		t.Errorf("fitted interval %v outside [9,11]", g)
	}
	s := sd.SD{X: []int{0}, Y: 1, G: g, Schema: r.Schema()}
	if !s.Holds(r) {
		t.Error("SD with fitted interval must hold")
	}
}

func TestFitIntervalTrimsOutliers(t *testing.T) {
	r := gen.Series(300, 9, 11, 0.1, 32)
	full := FitInterval(r, []int{0}, 1, 1.0)
	trimmed := FitInterval(r, []int{0}, 1, 0.8)
	if trimmed.Hi-trimmed.Lo >= full.Hi-full.Lo {
		t.Errorf("trimmed interval %v not tighter than full %v", trimmed, full)
	}
	if trimmed.Lo < 8 || trimmed.Hi > 12 {
		t.Errorf("trimmed interval %v should land near [9,11]", trimmed)
	}
}

func TestFitIntervalTiny(t *testing.T) {
	r := gen.Series(1, 9, 11, 0, 33)
	if g := FitInterval(r, []int{0}, 1, 1); g != (sd.Interval{}) {
		t.Errorf("single row: %v", g)
	}
}

// regimeSeries builds a series whose step is 10 for seq < 50 and 20 after,
// with a chaotic middle gap — the CSD workload of §4.4.5.
func regimeSeries() *relation.Relation {
	s := relation.NewSchema(
		relation.Attribute{Name: "seq", Kind: relation.KindInt},
		relation.Attribute{Name: "value", Kind: relation.KindFloat},
	)
	r := relation.New("regime", s)
	v := 0.0
	for i := 0; i < 100; i++ {
		_ = r.Append([]relation.Value{relation.Int(i), relation.Float(v)})
		switch {
		case i < 45:
			v += 10
		case i < 55:
			v -= 100 // chaotic middle
		default:
			v += 10
		}
	}
	return r
}

func TestTableauDPFindsGoodSpans(t *testing.T) {
	r := regimeSeries()
	s := sd.Must(r.Schema(), []string{"seq"}, "value", sd.Interval{Lo: 9, Hi: 11})
	if s.Holds(r) {
		t.Fatal("sanity: the unconditional SD must fail")
	}
	spans := TableauDP(r, s, 1.0, 20)
	if len(spans) == 0 {
		t.Fatal("tableau empty")
	}
	covered := 0
	for _, span := range spans {
		sub := r.Select(func(row int) bool { return span.Contains(r.Value(row, 0).Num()) })
		if s.Confidence(sub) < 1 {
			t.Errorf("span %v has confidence < 1", span)
		}
		covered += sub.Rows()
	}
	// The two clean regimes together cover ≥ 80 tuples.
	if covered < 80 {
		t.Errorf("tableau covers %d tuples, want ≥ 80", covered)
	}
	// Spans are disjoint and sorted.
	for i := 1; i < len(spans); i++ {
		if spans[i].Lo <= spans[i-1].Hi {
			t.Errorf("spans overlap: %v", spans)
		}
	}
}

func TestTableauDPWholeRangeWhenClean(t *testing.T) {
	r := gen.Series(80, 9, 11, 0, 34)
	s := sd.Must(r.Schema(), []string{"seq"}, "value", sd.Interval{Lo: 9, Hi: 11})
	spans := TableauDP(r, s, 1.0, 10)
	if len(spans) != 1 {
		t.Fatalf("clean series tableau = %v, want one span", spans)
	}
	sub := r.Select(func(row int) bool { return spans[0].Contains(r.Value(row, 0).Num()) })
	if sub.Rows() != r.Rows() {
		t.Errorf("span covers %d of %d tuples", sub.Rows(), r.Rows())
	}
}

func TestTableauDPTiny(t *testing.T) {
	r := gen.Series(1, 9, 11, 0, 35)
	s := sd.Must(r.Schema(), []string{"seq"}, "value", sd.Interval{Lo: 9, Hi: 11})
	if spans := TableauDP(r, s, 1, 10); spans != nil {
		t.Errorf("single row: %v", spans)
	}
}

// TestDiscoverEmitsOnlyConfidentSDs: sddisc's output is approximate —
// an emitted SD need not hold exactly (sd.SD.Holds) — but every SD it
// emits reaches MinConfidence on the relation it was mined from.
func TestDiscoverEmitsOnlyConfidentSDs(t *testing.T) {
	const minConfidence = 0.9 // Options' default
	for seed := int64(1); seed <= 3; seed++ {
		r := gen.Hotels(gen.HotelConfig{Rows: 120, Seed: seed, VarietyRate: 0.1, ErrorRate: 0.05, DuplicateRate: 0.2})
		res := DiscoverContext(context.Background(), r, Options{})
		if res.Partial || len(res.SDs) == 0 {
			t.Fatalf("seed %d: %d SDs, partial %v; want a complete run that emits SDs", seed, len(res.SDs), res.Partial)
		}
		for _, s := range res.SDs {
			if c := s.Confidence(r); c < minConfidence {
				t.Errorf("seed %d: %s has confidence %.3f, below %.1f", seed, s, c, minConfidence)
			}
		}
	}
}
