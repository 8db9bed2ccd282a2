package fd

import (
	"math/rand"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestFD1OnTable1(t *testing.T) {
	r := gen.Table1()
	f := Must(r.Schema(), []string{"address"}, []string{"region"})
	if f.Holds(r) {
		t.Error("fd1 must not hold on Table 1 (t3/t4 and t5/t6 violate)")
	}
	vs := f.Violations(r, 0)
	// Pairs that agree on address but differ on region: (t3,t4) and (t5,t6).
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2", vs)
	}
	got := map[[2]int]bool{}
	for _, v := range vs {
		got[[2]int{v.Rows[0], v.Rows[1]}] = true
	}
	if !got[[2]int{2, 3}] || !got[[2]int{4, 5}] {
		t.Errorf("violating pairs = %v, want (t3,t4) and (t5,t6)", vs)
	}
}

func TestFD1HoldsAfterRestriction(t *testing.T) {
	r := gen.Table1()
	// On the first two tuples fd1 holds.
	sub := r.Select(func(row int) bool { return row < 2 })
	f := Must(r.Schema(), []string{"address"}, []string{"region"})
	if !f.Holds(sub) {
		t.Error("fd1 must hold on {t1,t2}")
	}
	if g3 := f.G3(sub); g3 != 0 {
		t.Errorf("g3 = %v, want 0", g3)
	}
}

// TestMultiColumnLHSSeparatorCollision: two tuples whose LHS cells,
// rendered as keys and joined with a separator byte, spell one string are
// still distinct X-values, so differing Y-values violate nothing and the
// FD ab → c holds only when they agree.
func TestMultiColumnLHSSeparatorCollision(t *testing.T) {
	s := relation.NewSchema(relation.Attribute{Name: "a"}, relation.Attribute{Name: "b"}, relation.Attribute{Name: "c"})
	r := relation.MustFromRows("r", s, [][]relation.Value{
		{relation.String("x\x1fs:y"), relation.String("z"), relation.String("1")},
		{relation.String("x"), relation.String("y\x1fs:z"), relation.String("2")},
		{relation.String("x"), relation.String("y\x1fs:z"), relation.String("3")},
	})
	f := Must(s, []string{"a", "b"}, []string{"c"})
	if f.Holds(r) {
		t.Fatal("ab -> c must not hold: rows 1 and 2 agree on ab and differ on c")
	}
	vs := f.Violations(r, 0)
	if len(vs) != 1 || vs[0].Rows[0] != 1 || vs[0].Rows[1] != 2 {
		t.Errorf("violations = %v, want only (1,2)", vs)
	}
	if !f.Holds(r.Select(func(row int) bool { return row < 2 })) {
		t.Error("ab -> c must hold on rows 0 and 1: their ab-values differ")
	}
}

func TestG3OnTable5(t *testing.T) {
	r := gen.Table5()
	addrRegion := Must(r.Schema(), []string{"address"}, []string{"region"})
	if g3 := addrRegion.G3(r); g3 != 0.25 {
		t.Errorf("g3(address→region, r5) = %v, want 1/4 (paper §2.3.1)", g3)
	}
	nameAddr := Must(r.Schema(), []string{"name"}, []string{"address"})
	if g3 := nameAddr.G3(r); g3 != 0.5 {
		t.Errorf("g3(name→address, r5) = %v, want 1/2 (paper §2.3.1)", g3)
	}
}

func TestViolationLimit(t *testing.T) {
	r := gen.Table1()
	f := Must(r.Schema(), []string{"address"}, []string{"region"})
	if vs := f.Violations(r, 1); len(vs) != 1 {
		t.Errorf("limit 1: got %d", len(vs))
	}
}

func TestTrivial(t *testing.T) {
	s := relation.Strings("a", "b")
	if !Must(s, []string{"a", "b"}, []string{"a"}).Trivial() {
		t.Error("ab→a is trivial")
	}
	if Must(s, []string{"a"}, []string{"b"}).Trivial() {
		t.Error("a→b is not trivial")
	}
}

func TestNewErrors(t *testing.T) {
	s := relation.Strings("a", "b")
	if _, err := New(s, []string{"nope"}, []string{"b"}); err == nil {
		t.Error("unknown LHS should fail")
	}
	if _, err := New(s, []string{"a"}, []string{"nope"}); err == nil {
		t.Error("unknown RHS should fail")
	}
}

func TestString(t *testing.T) {
	s := relation.Strings("address", "region")
	f := Must(s, []string{"address"}, []string{"region"})
	if got := f.String(); got != "address -> region" {
		t.Errorf("String = %q", got)
	}
	if f.Kind() != "FD" {
		t.Error("Kind")
	}
}

func TestClosure(t *testing.T) {
	// Classic example: R(A,B,C,D), A→B, B→C.
	fds := []FD{
		{LHS: attrset.Of(0), RHS: attrset.Of(1)},
		{LHS: attrset.Of(1), RHS: attrset.Of(2)},
	}
	if got := Closure(attrset.Of(0), fds); got != attrset.Of(0, 1, 2) {
		t.Errorf("A+ = %v", got)
	}
	if got := Closure(attrset.Of(3), fds); got != attrset.Of(3) {
		t.Errorf("D+ = %v", got)
	}
}

func TestImplies(t *testing.T) {
	fds := []FD{
		{LHS: attrset.Of(0), RHS: attrset.Of(1)},
		{LHS: attrset.Of(1), RHS: attrset.Of(2)},
	}
	if !Implies(fds, FD{LHS: attrset.Of(0), RHS: attrset.Of(2)}) {
		t.Error("transitivity should be implied")
	}
	if Implies(fds, FD{LHS: attrset.Of(2), RHS: attrset.Of(0)}) {
		t.Error("reverse should not be implied")
	}
	// Reflexivity and augmentation.
	if !Implies(nil, FD{LHS: attrset.Of(0, 1), RHS: attrset.Of(1)}) {
		t.Error("reflexivity")
	}
	if !Implies(fds, FD{LHS: attrset.Of(0, 3), RHS: attrset.Of(1, 3)}) {
		t.Error("augmentation")
	}
}

func TestMinimalCover(t *testing.T) {
	// A→BC, B→C, A→B, AB→C reduces to {A→B, B→C}.
	fds := []FD{
		{LHS: attrset.Of(0), RHS: attrset.Of(1, 2)},
		{LHS: attrset.Of(1), RHS: attrset.Of(2)},
		{LHS: attrset.Of(0), RHS: attrset.Of(1)},
		{LHS: attrset.Of(0, 1), RHS: attrset.Of(2)},
	}
	cover := MinimalCover(fds)
	if !Equivalent(cover, fds) {
		t.Fatal("cover not equivalent to input")
	}
	if len(cover) != 2 {
		t.Errorf("cover size = %d, want 2: %v", len(cover), cover)
	}
	for _, f := range cover {
		if f.RHS.Len() != 1 {
			t.Errorf("non-singleton RHS in cover: %v", f)
		}
	}
}

func TestMinimalCoverRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 5
		var fds []FD
		for k := 0; k < 6; k++ {
			lhs := attrset.Set(rng.Intn(1 << n))
			rhs := attrset.Set(rng.Intn(1 << n))
			if lhs.IsEmpty() || rhs.IsEmpty() {
				continue
			}
			fds = append(fds, FD{LHS: lhs, RHS: rhs})
		}
		cover := MinimalCover(fds)
		if !Equivalent(cover, fds) {
			t.Fatalf("trial %d: cover not equivalent: %v vs %v", trial, cover, fds)
		}
		if len(cover) > 0 {
			// No FD in the cover is implied by the others.
			for i := range cover {
				rest := append(append([]FD{}, cover[:i]...), cover[i+1:]...)
				if Implies(rest, cover[i]) {
					t.Fatalf("trial %d: redundant FD %v in cover", trial, cover[i])
				}
			}
		}
	}
}

func TestCandidateKeys(t *testing.T) {
	// R(A,B,C): A→B, B→C. Key: {A}.
	fds := []FD{
		{LHS: attrset.Of(0), RHS: attrset.Of(1)},
		{LHS: attrset.Of(1), RHS: attrset.Of(2)},
	}
	keys := CandidateKeys(3, fds)
	if len(keys) != 1 || keys[0] != attrset.Of(0) {
		t.Errorf("keys = %v, want [{A}]", keys)
	}
	// R(A,B,C): A→BC, BC→A. Keys: {A} and {B,C} (different sizes).
	fds2 := []FD{
		{LHS: attrset.Of(0), RHS: attrset.Of(1, 2)},
		{LHS: attrset.Of(1, 2), RHS: attrset.Of(0)},
	}
	keys2 := CandidateKeys(3, fds2)
	if len(keys2) != 2 || keys2[0] != attrset.Of(0) || keys2[1] != attrset.Of(1, 2) {
		t.Errorf("keys = %v, want [{A},{B,C}]", keys2)
	}
	// No FDs: the whole scheme is the only key.
	keys3 := CandidateKeys(3, nil)
	if len(keys3) != 1 || keys3[0] != attrset.Full(3) {
		t.Errorf("keys = %v, want [R]", keys3)
	}
}

func TestCandidateKeysAreMinimalSuperkeys(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 5
		var fds []FD
		for k := 0; k < 5; k++ {
			lhs := attrset.Set(rng.Intn(1<<n) | 1)
			rhs := attrset.Set(rng.Intn(1 << n))
			if rhs.IsEmpty() {
				continue
			}
			fds = append(fds, FD{LHS: lhs, RHS: rhs})
		}
		keys := CandidateKeys(n, fds)
		if len(keys) == 0 {
			t.Fatalf("trial %d: no candidate key found", trial)
		}
		for _, k := range keys {
			if !IsSuperkey(k, n, fds) {
				t.Fatalf("trial %d: %v is not a superkey", trial, k)
			}
			k.ImmediateSubsets(func(sub attrset.Set) {
				if IsSuperkey(sub, n, fds) {
					t.Fatalf("trial %d: key %v not minimal (%v is a superkey)", trial, k, sub)
				}
			})
		}
		// Pairwise non-containment.
		for i := range keys {
			for j := range keys {
				if i != j && keys[i].SubsetOf(keys[j]) {
					t.Fatalf("trial %d: key %v ⊆ key %v", trial, keys[i], keys[j])
				}
			}
		}
	}
}

func TestHoldsMatchesPairwiseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		r := gen.Categorical(30, []int{3, 3, 2}, rng.Int63())
		f := FD{LHS: attrset.Of(0), RHS: attrset.Of(1, 2), Schema: r.Schema()}
		want := true
	outer:
		for i := 0; i < r.Rows(); i++ {
			for j := i + 1; j < r.Rows(); j++ {
				if r.Value(i, 0).Equal(r.Value(j, 0)) {
					if !r.Value(i, 1).Equal(r.Value(j, 1)) || !r.Value(i, 2).Equal(r.Value(j, 2)) {
						want = false
						break outer
					}
				}
			}
		}
		if got := f.Holds(r); got != want {
			t.Fatalf("trial %d: Holds = %v, pairwise definition = %v", trial, got, want)
		}
	}
}
