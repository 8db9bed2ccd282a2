package fastfd

import (
	"context"
	"math/rand"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/tane"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func asSet(fds []fd.FD) map[[2]attrset.Set]bool {
	out := map[[2]attrset.Set]bool{}
	for _, f := range fds {
		out[[2]attrset.Set{f.LHS, f.RHS}] = true
	}
	return out
}

func TestAgreesWithTANE(t *testing.T) {
	// FastFD and TANE are independent algorithms for the same problem;
	// they must produce identical minimal FD sets.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		r := gen.Categorical(25, []int{2, 3, 2, 3}, rng.Int63())
		got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
		want := asSet(tane.DiscoverContext(context.Background(), r, tane.Options{}).FDs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: FastFD %d FDs, TANE %d\n fastfd: %v\n tane: %v",
				trial, len(got), len(want), got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: FastFD missing %v", trial, k)
			}
		}
	}
}

func TestAgreesWithTANEOnFixtures(t *testing.T) {
	for _, r := range []*relation.Relation{gen.Table1(), gen.Table5(), gen.Table6(), gen.Table7()} {
		got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
		want := asSet(tane.DiscoverContext(context.Background(), r, tane.Options{}).FDs)
		if len(got) != len(want) {
			t.Fatalf("%s: FastFD %v != TANE %v", r.Name(), got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: FastFD missing %v", r.Name(), k)
			}
		}
	}
}

func TestDiscoveredFDsHold(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 5, VarietyRate: 0.2})
	for _, f := range DiscoverContext(context.Background(), r, Options{}).FDs {
		if !f.Holds(r) {
			t.Errorf("discovered FD %v does not hold", f)
		}
	}
}

func TestDiscoveredFDsAreMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		r := gen.Categorical(20, []int{2, 2, 3}, rng.Int63())
		for _, f := range DiscoverContext(context.Background(), r, Options{}).FDs {
			f := f
			f.LHS.ImmediateSubsets(func(sub attrset.Set) {
				smaller := fd.FD{LHS: sub, RHS: f.RHS, Schema: f.Schema}
				if smaller.Holds(r) {
					t.Errorf("trial %d: FD %v not minimal", trial, f)
				}
			})
		}
	}
}

func TestNoAgreementCase(t *testing.T) {
	// All tuples pairwise disagree everywhere: every {B} → a holds.
	s := relation.Strings("a", "b")
	r := relation.MustFromRows("d", s, [][]relation.Value{
		{relation.String("1"), relation.String("x")},
		{relation.String("2"), relation.String("y")},
		{relation.String("3"), relation.String("z")},
	})
	got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
	if !got[[2]attrset.Set{attrset.Of(0), attrset.Of(1)}] || !got[[2]attrset.Set{attrset.Of(1), attrset.Of(0)}] {
		t.Errorf("pairwise-distinct relation: %v", got)
	}
}

func TestConstantColumn(t *testing.T) {
	s := relation.Strings("a", "c")
	r := relation.MustFromRows("c", s, [][]relation.Value{
		{relation.String("x"), relation.String("k")},
		{relation.String("y"), relation.String("k")},
	})
	got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
	if !got[[2]attrset.Set{attrset.Empty, attrset.Of(1)}] {
		t.Errorf("∅ → c missing: %v", got)
	}
}

func TestEmptyAndSingleRow(t *testing.T) {
	r := relation.New("e", relation.Strings("a", "b"))
	if fds := DiscoverContext(context.Background(), r, Options{}).FDs; len(fds) != 0 {
		t.Errorf("empty relation: %v", fds)
	}
	_ = r.Append([]relation.Value{relation.String("x"), relation.String("y")})
	fds := DiscoverContext(context.Background(), r, Options{}).FDs
	// Single row: every column is constant; ∅ → a and ∅ → b.
	got := asSet(fds)
	if !got[[2]attrset.Set{attrset.Empty, attrset.Of(0)}] || !got[[2]attrset.Set{attrset.Empty, attrset.Of(1)}] {
		t.Errorf("single row: %v", got)
	}
}
