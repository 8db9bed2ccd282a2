package pfd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func mk(t *testing.T, lhs, rhs string) PFD {
	t.Helper()
	r := gen.Table5()
	p := PFD{Schema: r.Schema()}
	p.LHS = p.LHS.Add(r.Schema().MustIndex(lhs))
	p.RHS = p.RHS.Add(r.Schema().MustIndex(rhs))
	return p
}

func TestProbabilityOnTable5(t *testing.T) {
	r := gen.Table5()
	addrRegion := mk(t, "address", "region")
	// Paper §2.2.1: P(V1)=1, P(V2)=1/2, P = 3/4.
	if got := addrRegion.Probability(r); got != 0.75 {
		t.Errorf("P(address→region, r5) = %v, want 3/4", got)
	}
	if got := addrRegion.PerValue(r, 0); got != 1 {
		t.Errorf("P(V1) = %v, want 1", got)
	}
	if got := addrRegion.PerValue(r, 2); got != 0.5 {
		t.Errorf("P(V2) = %v, want 1/2", got)
	}
	nameAddr := mk(t, "name", "address")
	if got := nameAddr.Probability(r); got != 0.5 {
		t.Errorf("P(name→address, r5) = %v, want 1/2", got)
	}
}

func TestHoldsThreshold(t *testing.T) {
	r := gen.Table5()
	p := mk(t, "address", "region")
	p.MinProb = 0.75
	if !p.Holds(r) {
		t.Error("P=3/4 ≥ 0.75 should hold")
	}
	p.MinProb = 0.76
	if p.Holds(r) {
		t.Error("P=3/4 < 0.76 should not hold")
	}
}

func TestFDEmbeddingEdge(t *testing.T) {
	// Fig 1 edge FD → PFD: FD holds iff the p=1 embedding holds.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		r := gen.Categorical(25, []int{3, 3}, rng.Int63())
		f := fd.Must(r.Schema(), []string{"c0"}, []string{"c1"})
		p := FromFD(f)
		if f.Holds(r) != p.Holds(r) {
			t.Fatalf("trial %d: FD.Holds=%v but PFD(p=1).Holds=%v",
				trial, f.Holds(r), p.Holds(r))
		}
	}
}

func TestViolationsAreMinorityTuples(t *testing.T) {
	r := gen.Table5()
	p := mk(t, "address", "region")
	p.MinProb = 1
	vs := p.Violations(r, 0)
	// Group "6030 Gateway Boulevard E" = {t3, t4} with tied region values;
	// exactly one of the two is the minority.
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly 1", vs)
	}
	row := vs[0].Rows[0]
	if row != 2 && row != 3 {
		t.Errorf("violating row = t%d, want t3 or t4", row+1)
	}
	if got := p.Violations(r, 1); len(got) != 1 {
		t.Error("limit not respected")
	}
}

func TestNoViolationsWhenHolds(t *testing.T) {
	r := gen.Table5()
	p := mk(t, "address", "region")
	p.MinProb = 0.5
	if vs := p.Violations(r, 0); vs != nil {
		t.Errorf("holds ⇒ no violations, got %v", vs)
	}
}

func TestEmptyRelation(t *testing.T) {
	r := gen.Table5().Select(func(int) bool { return false })
	p := mk(t, "address", "region")
	p.MinProb = 1
	if !p.Holds(r) {
		t.Error("empty relation satisfies every PFD")
	}
}

func TestProbabilityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		r := gen.Categorical(30, []int{4, 3}, rng.Int63())
		p := PFD{Schema: r.Schema()}
		p.LHS = p.LHS.Add(0)
		p.RHS = p.RHS.Add(1)
		prob := p.Probability(r)
		if prob <= 0 || prob > 1 {
			t.Fatalf("trial %d: P = %v outside (0,1]", trial, prob)
		}
		if math.IsNaN(prob) {
			t.Fatal("NaN probability")
		}
	}
}

func TestStringAndKind(t *testing.T) {
	r := gen.Table5()
	f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
	p := FromFD(f)
	if p.Kind() != "PFD" {
		t.Error("Kind")
	}
	if got := p.String(); got != "address ->_{p=1} region" {
		t.Errorf("String = %q", got)
	}
}

// TestProbabilityBitIdentical: P(X → Y, r) is summed in class order, so
// repeated calls return the same float64 bits — a PFD sitting exactly at
// its threshold cannot flip between runs.
func TestProbabilityBitIdentical(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 2000, Seed: 7, ErrorRate: 0.02, VarietyRate: 0.05, DuplicateRate: 0.1})
	p := PFD{Schema: r.Schema()}
	p.LHS = p.LHS.Add(r.Schema().MustIndex("price"))
	p.RHS = p.RHS.Add(r.Schema().MustIndex("region"))
	want := math.Float64bits(p.Probability(r))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(p.Probability(r)); got != want {
			t.Fatalf("call %d: probability bits %#x, want %#x", i, got, want)
		}
	}
}

// TestViolationsDeterministic: when Y-values tie for the majority of an
// X-class, the witnesses are the same on every call (the tie goes to the
// Y-value appearing first in the class).
func TestViolationsDeterministic(t *testing.T) {
	s := relation.NewSchema(relation.Attribute{Name: "x"}, relation.Attribute{Name: "y"})
	var rows [][]relation.Value
	for y := 0; y < 8; y++ {
		for k := 0; k < 2; k++ {
			rows = append(rows, []relation.Value{relation.String("a"), relation.String(string(rune('p' + y)))})
		}
	}
	r := relation.MustFromRows("r", s, rows)
	p := PFD{LHS: attrset.Single(0), RHS: attrset.Single(1), MinProb: 0.9, Schema: s}
	want := p.Violations(r, 0)
	if len(want) != 14 || want[0].Rows[0] != 2 {
		t.Fatalf("violations = %v, want 14 starting at row 2 (rows 0-1 hold the tied first majority)", want)
	}
	for i := 0; i < 20; i++ {
		if got := p.Violations(r, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: violations = %v, want %v", i, got, want)
		}
	}
}
