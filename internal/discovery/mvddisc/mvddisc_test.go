package mvddisc

import (
	"context"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestDiscoverTextbookMVD(t *testing.T) {
	// course ->> book independent of lecturer.
	s := relation.Strings("course", "book", "lecturer")
	r := relation.New("courses", s)
	for _, course := range []string{"AHA", "OSO"} {
		for _, book := range []string{"S", "N"} {
			for _, lect := range []string{"John", "Will"} {
				_ = r.Append([]relation.Value{
					relation.String(course), relation.String(book), relation.String(lect),
				})
			}
		}
	}
	mvds := DiscoverContext(context.Background(), r, Options{MaxLHS: 1}).MVDs
	found := false
	for _, m := range mvds {
		if m.LHS == 1 && (m.RHS == 2 || m.RHS == 4) { // course ->> book (or lecturer)
			found = true
		}
		if !m.Holds(r) {
			t.Errorf("discovered MVD %v does not hold", m)
		}
	}
	if !found {
		t.Errorf("course ->> book not discovered: %v", mvds)
	}
}

func TestDiscoverOnTable5(t *testing.T) {
	// mvd1: address, rate ->> region holds on r5 (paper §2.6.1).
	r := gen.Table5()
	mvds := DiscoverContext(context.Background(), r, Options{MaxLHS: 2}).MVDs
	for _, m := range mvds {
		if !m.Holds(r) {
			t.Errorf("discovered MVD %v does not hold", m)
		}
	}
}

func TestAllDiscoveredHold(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := gen.Categorical(20, []int{2, 2, 2, 2}, seed)
		for _, m := range DiscoverContext(context.Background(), r, Options{MaxLHS: 2}).MVDs {
			if !m.Holds(r) {
				t.Fatalf("seed %d: MVD %v does not hold", seed, m)
			}
		}
	}
}

func TestComplementNotDoubleReported(t *testing.T) {
	s := relation.Strings("x", "y", "z")
	r := relation.MustFromRows("c", s, [][]relation.Value{
		{relation.String("a"), relation.String("1"), relation.String("p")},
		{relation.String("a"), relation.String("2"), relation.String("p")},
		{relation.String("a"), relation.String("1"), relation.String("q")},
		{relation.String("a"), relation.String("2"), relation.String("q")},
	})
	mvds := DiscoverContext(context.Background(), r, Options{MaxLHS: 1}).MVDs
	// x ->> y and x ->> z are the same MVD; only one form is reported.
	count := 0
	for _, m := range mvds {
		if m.LHS == 1 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("complement pair reported %d times: %v", count, mvds)
	}
}

func TestTooFewAttributes(t *testing.T) {
	r := gen.Categorical(10, []int{2, 2}, 1)
	if got := DiscoverContext(context.Background(), r, Options{}).MVDs; got != nil {
		t.Errorf("2-attribute relation has no interesting MVDs: %v", got)
	}
}

func TestAMVDDiscoveryOption(t *testing.T) {
	// An incomplete product: exact discovery rejects x ->> y, the ε-MVD
	// search [59] admits it.
	s := relation.Strings("x", "y", "z")
	r := relation.MustFromRows("a", s, [][]relation.Value{
		{relation.String("a"), relation.String("1"), relation.String("p")},
		{relation.String("a"), relation.String("2"), relation.String("p")},
		{relation.String("a"), relation.String("1"), relation.String("q")},
	})
	exact := DiscoverContext(context.Background(), r, Options{MaxLHS: 1}).MVDs
	for _, m := range exact {
		if m.LHS == 1 {
			t.Errorf("exact discovery accepted %v on the incomplete product", m)
		}
	}
	approx := DiscoverContext(context.Background(), r, Options{MaxLHS: 1, MaxSpurious: 0.25}).MVDs
	found := false
	for _, m := range approx {
		if m.LHS == 1 {
			found = true
			if got := m.SpuriousRatio(r); got > 0.25 {
				t.Errorf("AMVD %v ratio %v exceeds budget", m, got)
			}
		}
	}
	if !found {
		t.Errorf("ε=0.25 should admit x ->> y: %v", approx)
	}
}
