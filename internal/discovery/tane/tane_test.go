package tane

import (
	"context"
	"math/rand"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/gen"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// bruteForceMinimalFDs enumerates all minimal FDs (including ∅ → A) by
// exhaustive search — the oracle TANE and FastFD are tested against.
func bruteForceMinimalFDs(r *relation.Relation) map[[2]attrset.Set]bool {
	n := r.Cols()
	holds := func(x attrset.Set, a int) bool {
		px := partition.Build(r, x)
		pxa := partition.Build(r, x.Add(a))
		return partition.Refines(px, pxa)
	}
	out := map[[2]attrset.Set]bool{}
	var all []attrset.Set
	attrset.Full(n).Subsets(func(s attrset.Set) { all = append(all, s) })
	for a := 0; a < n; a++ {
		for _, x := range all {
			if x.Has(a) || !holds(x, a) {
				continue
			}
			minimal := true
			x.ImmediateSubsets(func(sub attrset.Set) {
				if holds(sub, a) {
					minimal = false
				}
			})
			if minimal {
				out[[2]attrset.Set{x, attrset.Single(a)}] = true
			}
		}
	}
	return out
}

func asSet(fds []fd.FD) map[[2]attrset.Set]bool {
	out := map[[2]attrset.Set]bool{}
	for _, f := range fds {
		out[[2]attrset.Set{f.LHS, f.RHS}] = true
	}
	return out
}

func TestDiscoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		r := gen.Categorical(20, []int{2, 3, 2, 4}, rng.Int63())
		got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
		want := bruteForceMinimalFDs(r)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d FDs found, want %d\n got: %v\nwant: %v",
				trial, len(got), len(want), got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing FD %v", trial, k)
			}
		}
	}
}

func TestDiscoverWithKeyColumn(t *testing.T) {
	// A unique id column: id → everything must be discovered despite key
	// pruning.
	s := relation.Strings("id", "a", "b")
	r := relation.MustFromRows("k", s, [][]relation.Value{
		{relation.String("1"), relation.String("x"), relation.String("p")},
		{relation.String("2"), relation.String("x"), relation.String("q")},
		{relation.String("3"), relation.String("y"), relation.String("p")},
	})
	got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
	want := bruteForceMinimalFDs(r)
	if len(got) != len(want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
	idToA := [2]attrset.Set{attrset.Of(0), attrset.Of(1)}
	if !got[idToA] {
		t.Error("id → a missing")
	}
}

func TestDiscoverConstantColumn(t *testing.T) {
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

func TestDiscoverOnTable1(t *testing.T) {
	r := gen.Table1()
	fds := DiscoverContext(context.Background(), r, Options{}).FDs
	// fd1 address → region does NOT hold; but address → star does.
	addr := attrset.Single(r.Schema().MustIndex("address"))
	region := attrset.Single(r.Schema().MustIndex("region"))
	star := attrset.Single(r.Schema().MustIndex("star"))
	got := asSet(fds)
	if got[[2]attrset.Set{addr, region}] {
		t.Error("address → region must not be discovered on dirty Table 1")
	}
	if !got[[2]attrset.Set{addr, star}] {
		t.Error("address → star should be discovered")
	}
	// Every discovered FD actually holds.
	for _, f := range fds {
		if !f.Holds(r) {
			t.Errorf("discovered FD %v does not hold", f)
		}
	}
}

func TestApproximateDiscovery(t *testing.T) {
	// Table 5: g3(address→region) = 1/4, so ε=0.25 admits it, ε=0.2 not.
	r := gen.Table5()
	addr := attrset.Single(r.Schema().MustIndex("address"))
	region := attrset.Single(r.Schema().MustIndex("region"))
	key := [2]attrset.Set{addr, region}
	if got := asSet(DiscoverContext(context.Background(), r, Options{MaxError: 0.25}).FDs); !got[key] {
		t.Errorf("ε=0.25 must discover address→region; got %v", got)
	}
	if got := asSet(DiscoverContext(context.Background(), r, Options{MaxError: 0.2}).FDs); got[key] {
		t.Error("ε=0.2 must reject address→region")
	}
}

func TestApproximateDiscoveredFDsHaveBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		r := gen.Categorical(40, []int{3, 3, 3}, rng.Int63())
		eps := 0.15
		for _, f := range DiscoverContext(context.Background(), r, Options{MaxError: eps}).FDs {
			if g3 := f.G3(r); g3 > eps {
				t.Fatalf("trial %d: discovered AFD %v has g3=%v > ε=%v", trial, f, g3, eps)
			}
		}
	}
}

func TestMaxLHS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := gen.Categorical(30, []int{2, 2, 2, 2, 2}, rng.Int63())
	for _, f := range DiscoverContext(context.Background(), r, Options{MaxLHS: 1}).FDs {
		if f.LHS.Len() > 1 {
			t.Errorf("FD %v exceeds MaxLHS=1", f)
		}
	}
}

func TestPlantedFDRecovered(t *testing.T) {
	r := gen.WithFD(300, []int{4, 4}, 0, 7)
	got := asSet(DiscoverContext(context.Background(), r, Options{}).FDs)
	// x0,x1 → y is planted; it (or a smaller subset implying it) must
	// appear.
	found := false
	for k := range got {
		if k[1] == attrset.Single(2) && k[0].SubsetOf(attrset.Of(0, 1)) {
			found = true
		}
	}
	if !found {
		t.Errorf("planted FD not recovered: %v", got)
	}
}

func TestEmptyRelation(t *testing.T) {
	r := relation.New("e", relation.Strings("a", "b"))
	if fds := DiscoverContext(context.Background(), r, Options{}).FDs; len(fds) != 0 {
		t.Errorf("empty relation: %v", fds)
	}
}
