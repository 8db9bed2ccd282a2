package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deptree/internal/attrset"
	"deptree/internal/relation"
)

func rel(t *testing.T) *relation.Relation {
	t.Helper()
	s := relation.Strings("addr", "region", "star")
	return relation.MustFromRows("r", s, [][]relation.Value{
		{relation.String("p5"), relation.String("NY"), relation.String("3")},
		{relation.String("p5"), relation.String("NY"), relation.String("3")},
		{relation.String("w3"), relation.String("BO"), relation.String("3")},
		{relation.String("w3"), relation.String("CH"), relation.String("3")},
		{relation.String("f5"), relation.String("CH"), relation.String("4")},
	})
}

func TestBuildSingleColumn(t *testing.T) {
	p := Build(rel(t), attrset.Of(0))
	if p.Cardinality() != 3 {
		t.Errorf("card = %d, want 3", p.Cardinality())
	}
	if p.NumClasses() != 2 {
		t.Errorf("classes = %d, want 2", p.NumClasses())
	}
	if p.Size() != 4 {
		t.Errorf("size = %d, want 4", p.Size())
	}
	if p.IsKey() {
		t.Error("addr is not a key")
	}
}

func TestBuildEmptySet(t *testing.T) {
	p := Build(rel(t), attrset.Empty)
	if p.Cardinality() != 1 || p.NumClasses() != 1 || p.Size() != 5 {
		t.Errorf("empty-set partition: card=%d classes=%d size=%d", p.Cardinality(), p.NumClasses(), p.Size())
	}
	// The n ≤ 1 edge: π_∅ has no stripped class and |π_∅| = n, for both the
	// 0-row and the 1-row relation.
	empty := relation.New("e", relation.Strings("a"))
	pe := Build(empty, attrset.Empty)
	if pe.Cardinality() != 0 || pe.NumClasses() != 0 || pe.Size() != 0 {
		t.Errorf("zero-row empty-set partition: card=%d classes=%d size=%d",
			pe.Cardinality(), pe.NumClasses(), pe.Size())
	}
	one := relation.MustFromRows("one", relation.Strings("a"),
		[][]relation.Value{{relation.String("x")}})
	po := Build(one, attrset.Empty)
	if po.Cardinality() != 1 || po.NumClasses() != 0 || po.Size() != 0 {
		t.Errorf("one-row empty-set partition: card=%d classes=%d size=%d",
			po.Cardinality(), po.NumClasses(), po.Size())
	}
	if po.Error() != 0 || !po.IsKey() {
		t.Errorf("one-row empty-set partition: error=%v isKey=%v", po.Error(), po.IsKey())
	}
}

func TestBuildMultiColumn(t *testing.T) {
	p := Build(rel(t), attrset.Of(0, 1))
	if p.Cardinality() != 4 {
		t.Errorf("card(addr,region) = %d, want 4", p.Cardinality())
	}
	if p.NumClasses() != 1 || len(p.Classes()[0]) != 2 {
		t.Errorf("classes = %v", p.Classes())
	}
}

func TestProductMatchesDirectBuild(t *testing.T) {
	r := rel(t)
	pa := Build(r, attrset.Of(0))
	pb := Build(r, attrset.Of(1))
	prod := pa.Product(pb)
	direct := Build(r, attrset.Of(0, 1))
	if prod.Cardinality() != direct.Cardinality() {
		t.Errorf("product card %d != direct %d", prod.Cardinality(), direct.Cardinality())
	}
	if prod.Size() != direct.Size() || prod.NumClasses() != direct.NumClasses() {
		t.Errorf("product %v != direct %v", prod.Classes(), direct.Classes())
	}
}

func TestProductRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		s := relation.Strings("a", "b", "c")
		r := relation.New("rand", s)
		letters := []string{"x", "y", "z", "w"}
		for i := 0; i < n; i++ {
			row := []relation.Value{
				relation.String(letters[rng.Intn(3)]),
				relation.String(letters[rng.Intn(4)]),
				relation.String(letters[rng.Intn(2)]),
			}
			if err := r.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		for _, pair := range [][2]attrset.Set{
			{attrset.Of(0), attrset.Of(1)},
			{attrset.Of(0, 1), attrset.Of(2)},
			{attrset.Of(2), attrset.Of(0)},
		} {
			prod := Build(r, pair[0]).Product(Build(r, pair[1]))
			direct := Build(r, pair[0].Union(pair[1]))
			if prod.Cardinality() != direct.Cardinality() || prod.Size() != direct.Size() {
				t.Fatalf("trial %d: product mismatch for %v∪%v: card %d vs %d",
					trial, pair[0], pair[1], prod.Cardinality(), direct.Cardinality())
			}
		}
	}
}

func TestErrorMeasure(t *testing.T) {
	r := rel(t)
	p := Build(r, attrset.Of(0))
	// ||π||=4 covered rows, 2 classes, n=5 -> e = (4-2)/5.
	if got, want := p.Error(), 0.4; got != want {
		t.Errorf("Error = %v, want %v", got, want)
	}
	if Build(r, attrset.Of(0, 1, 2)).Error() != 0.2 {
		t.Error("full-set error wrong")
	}
}

func TestRefinesDetectsFD(t *testing.T) {
	r := rel(t)
	px := Build(r, attrset.Of(0))
	pxr := Build(r, attrset.Of(0, 1))
	if Refines(px, pxr) {
		t.Error("addr→region should NOT hold (w3 maps to BO and CH)")
	}
	pas := Build(r, attrset.Of(0, 2))
	if !Refines(px, pas) {
		t.Error("addr→star should hold")
	}
}

func TestG3(t *testing.T) {
	r := rel(t)
	codesRegion, _ := r.Codes(1)
	px := Build(r, attrset.Of(0))
	// Class {2,3} disagrees on region: one removal out of 5 rows.
	if got := px.G3(codesRegion); got != 0.2 {
		t.Errorf("g3(addr→region) = %v, want 0.2", got)
	}
	codesStar, _ := r.Codes(2)
	if got := px.G3(codesStar); got != 0 {
		t.Errorf("g3(addr→star) = %v, want 0", got)
	}
}

// TestCountGrowthOnKeyLikeRHS pins the counting array's growth on the
// shape that made G3 and ViolatingPairs quadratic: four LHS classes over
// distinct ascending RHS codes, counted on a fresh arena. Growing by one
// slot per new maximum code allocated (and copied) once per row.
func TestCountGrowthOnKeyLikeRHS(t *testing.T) {
	const n = 10000
	lhs, rhs := make([]int, n), make([]int, n)
	for i := range lhs {
		lhs[i], rhs[i] = i%4, i
	}
	p := FromCodes(lhs, 4)
	allocs := testing.AllocsPerRun(3, func() {
		s := new(scratch)
		for ci := 0; ci < p.NumClasses(); ci++ {
			class := p.Class(ci)
			for _, row := range class {
				s.count(rhs[row])
			}
			s.resetCounts(rhs, class)
		}
	})
	if allocs > 64 {
		t.Fatalf("counting %d ascending codes on a fresh arena: %.0f allocs, want O(log n)", n, allocs)
	}
	if got, want := p.G3(rhs), float64(n-4)/n; got != want {
		t.Fatalf("g3 = %v, want %v", got, want)
	}
}

func TestG3ZeroIffFDHolds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		s := relation.Strings("a", "b")
		r := relation.New("q", s)
		for _, x := range raw {
			_ = r.Append([]relation.Value{
				relation.String(string(rune('a' + x%4))),
				relation.String(string(rune('a' + x%3))),
			})
		}
		pa := Build(r, attrset.Of(0))
		pab := Build(r, attrset.Of(0, 1))
		codes, _ := r.Codes(1)
		return (pa.G3(codes) == 0) == Refines(pa, pab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestViolatingPairs(t *testing.T) {
	r := rel(t)
	codes, _ := r.Codes(1)
	px := Build(r, attrset.Of(0))
	pairs := px.ViolatingPairs(codes, 0)
	if len(pairs) != 1 || pairs[0] != [2]int{2, 3} {
		t.Errorf("pairs = %v", pairs)
	}
	if got := px.ViolatingPairs(codes, 1); len(got) != 1 {
		t.Errorf("limited pairs = %v", got)
	}
	codesStar, _ := r.Codes(2)
	if got := px.ViolatingPairs(codesStar, 0); len(got) != 0 {
		t.Errorf("no violations expected, got %v", got)
	}
}

func TestIsKeyOnKeyColumn(t *testing.T) {
	s := relation.Strings("id", "v")
	r := relation.MustFromRows("k", s, [][]relation.Value{
		{relation.String("1"), relation.String("a")},
		{relation.String("2"), relation.String("a")},
		{relation.String("3"), relation.String("b")},
	})
	if !Build(r, attrset.Of(0)).IsKey() {
		t.Error("id should be a key")
	}
	if Build(r, attrset.Of(1)).IsKey() {
		t.Error("v should not be a key")
	}
}
