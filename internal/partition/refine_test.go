package partition

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/relation"
)

// refineSchema: two low-cardinality columns (collisions, promotions), one
// medium, one high-cardinality (singleton births, the growth-0 path).
func refineSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Attribute{Name: "lo1", Kind: relation.KindInt},
		relation.Attribute{Name: "lo2", Kind: relation.KindString},
		relation.Attribute{Name: "mid", Kind: relation.KindInt},
		relation.Attribute{Name: "uniq", Kind: relation.KindInt},
	)
}

func refineRow(rng *rand.Rand, serial int) []relation.Value {
	return []relation.Value{
		relation.Int(rng.Intn(4)),
		relation.String("v" + strconv.Itoa(rng.Intn(3))),
		relation.Int(rng.Intn(20)),
		relation.Int(serial),
	}
}

func setLabel(x attrset.Set) string {
	return "set-" + strconv.FormatUint(uint64(x), 2)
}

// samePartition compares p against the canonical from-scratch oracle.
func samePartition(t *testing.T, label string, got, want *Partition) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.Cardinality() != want.Cardinality() ||
		got.NumClasses() != want.NumClasses() || got.Size() != want.Size() {
		t.Fatalf("%s: shape (rows %d/%d, card %d/%d, classes %d/%d, size %d/%d)", label,
			got.NumRows(), want.NumRows(), got.Cardinality(), want.Cardinality(),
			got.NumClasses(), want.NumClasses(), got.Size(), want.Size())
	}
	for ci := 0; ci < want.NumClasses(); ci++ {
		g, w := got.Class(ci), want.Class(ci)
		if len(g) != len(w) {
			t.Fatalf("%s: class %d len %d != %d", label, ci, len(g), len(w))
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: class %d row %d: %d != %d", label, ci, k, g[k], w[k])
			}
		}
	}
}

// checkRefine folds rows [old, r.Rows()) into f and checks the result
// against the from-scratch oracle: a canonical-form-identical partition,
// Partition() and Cardinality() in step, and Touched() exactly the
// stripped classes containing a delta row.
func checkRefine(t *testing.T, label string, f *Refiner, r *relation.Relation, old int, x attrset.Set) {
	t.Helper()
	p := f.AppendRefine(r, old)
	samePartition(t, label, p, Build(r, x))
	if p != f.Partition() {
		t.Fatalf("%s: returned partition is not Partition()", label)
	}
	if got, want := f.Cardinality(), p.Cardinality(); got != want {
		t.Fatalf("%s: Cardinality() %d != partition card %d", label, got, want)
	}
	touched := map[int]bool{}
	for _, ci := range f.Touched() {
		touched[ci] = true
	}
	for ci := 0; ci < p.NumClasses(); ci++ {
		hasDelta := false
		for _, row := range p.Class(ci) {
			if int(row) >= old {
				hasDelta = true
				break
			}
		}
		if hasDelta != touched[ci] {
			t.Fatalf("%s: class %d hasDelta=%v touched=%v", label, ci, hasDelta, touched[ci])
		}
	}
}

// refineBatches starts a refiner per attribute set on r, then appends
// each batch and checks every refiner after it.
func refineBatches(t *testing.T, r *relation.Relation, sets []attrset.Set, batches [][][]relation.Value) {
	t.Helper()
	refiners := make([]*Refiner, len(sets))
	for i, x := range sets {
		refiners[i] = NewRefiner(r, x)
		samePartition(t, "initial "+setLabel(x), refiners[i].Partition(), Build(r, x))
	}
	for b, batch := range batches {
		old := r.Rows()
		for _, row := range batch {
			if err := r.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		for i, x := range sets {
			checkRefine(t, "batch "+strconv.Itoa(b)+" "+setLabel(x), refiners[i], r, old, x)
		}
	}
}

// TestAppendRefineMatchesBuild is the oracle test: after every batch and
// for every attribute set shape (empty, singletons, pairs, a triple),
// AppendRefine's partition is canonical-form-identical to a from-scratch
// Build over the grown relation.
func TestAppendRefineMatchesBuild(t *testing.T) {
	sets := []attrset.Set{
		attrset.Set(0), // π_∅: one class holding every row
		attrset.Single(0),
		attrset.Single(1),
		attrset.Single(3), // all-singleton column: growth-0 every batch
		attrset.Single(0).Add(1),
		attrset.Single(0).Add(2),
		attrset.Single(0).Add(1).Add(2),
	}
	rng := rand.New(rand.NewSource(42))
	r := relation.New("refine", refineSchema())
	serial := 0
	rows := func(n int) [][]relation.Value {
		out := make([][]relation.Value, n)
		for i := range out {
			out[i] = refineRow(rng, serial)
			serial++
		}
		return out
	}
	for _, row := range rows(50) {
		if err := r.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	var batches [][][]relation.Value
	for batch := 0; batch < 6; batch++ {
		batches = append(batches, rows(5+rng.Intn(30)))
	}
	refineBatches(t, r, sets, batches)

	// Payloads that spell one another's cells once value keys are joined
	// with a separator byte, and the NaN, signed-zero and null classes.
	str, num := relation.String, relation.Float
	sep := relation.New("sep", relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindString},
		relation.Attribute{Name: "f", Kind: relation.KindFloat},
	))
	if err := sep.Append([]relation.Value{str("x\x1fs:y"), str("z"), num(0)}); err != nil {
		t.Fatal(err)
	}
	refineBatches(t, sep, []attrset.Set{attrset.Of(0, 1), attrset.Of(0, 1, 2), attrset.Of(2), attrset.Of(1, 2)}, [][][]relation.Value{
		{{str("x"), str("y\x1fs:z"), num(math.Copysign(0, -1))}},
		{{str("x\x1fs:y"), str("z"), num(math.NaN())}, {str("x"), str("y\x1fs:z"), num(math.NaN())}},
		{{str("x"), str("y\x1fs:z"), num(0)}, {relation.Null(relation.KindString), str("z"), relation.Null(relation.KindFloat)}},
	})
}

// TestAppendRefineEmptyDelta: a zero-row refine returns the same
// partition and clears Touched.
func TestAppendRefineEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := relation.New("refine", refineSchema())
	for i := 0; i < 30; i++ {
		if err := r.Append(refineRow(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	f := NewRefiner(r, attrset.Single(0))
	p0 := f.Partition()
	if p := f.AppendRefine(r, r.Rows()); p != p0 || len(f.Touched()) != 0 {
		t.Fatalf("empty delta: partition replaced or touched %v", f.Touched())
	}
}

// TestAppendRefinePromotion walks the three class transitions explicitly:
// extend, promote-from-stripped-singleton, and newborn class.
func TestAppendRefinePromotion(t *testing.T) {
	schema := relation.NewSchema(relation.Attribute{Name: "k", Kind: relation.KindString})
	r := relation.New("p", schema)
	for _, v := range []string{"dup", "dup", "solo"} {
		if err := r.Append([]relation.Value{relation.String(v)}); err != nil {
			t.Fatal(err)
		}
	}
	f := NewRefiner(r, attrset.Single(0))
	if f.Partition().NumClasses() != 1 { // {0,1}; "solo" stripped
		t.Fatalf("initial classes %d", f.Partition().NumClasses())
	}
	old := r.Rows()
	for _, v := range []string{"dup", "solo", "fresh", "fresh", "alone"} {
		if err := r.Append([]relation.Value{relation.String(v)}); err != nil {
			t.Fatal(err)
		}
	}
	p := f.AppendRefine(r, old)
	samePartition(t, "promotion", p, Build(r, attrset.Single(0)))
	// dup extended, solo promoted, fresh born, alone stays stripped.
	if p.NumClasses() != 3 || len(f.Touched()) != 3 {
		t.Fatalf("classes %d touched %v", p.NumClasses(), f.Touched())
	}
}

// FuzzRefinerMatchesBuild decodes bytes into append batches over up to
// three columns and checks a refiner per column subset against Build
// after every batch. The first byte picks the width and which columns are
// strings; each later byte is one cell — nulls, strings drawn from an
// alphabet of separator bytes and key prefixes, small ints, NaN payloads
// and signed zeros — or, for 0xff, a batch boundary.
func FuzzRefinerMatchesBuild(f *testing.F) {
	// ("x\x1fs:y", "z"), then ("x", "y\x1fs:z") in a second batch.
	f.Add([]byte{76, 41, 17, 0xff, 9, 49})
	f.Add([]byte{0x01, 20, 21, 0xff, 22, 23, 20, 0xff, 3, 3})
	f.Add([]byte{0x06, 2, 2, 2, 0xff, 2, 2, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ncols := 1 + int(data[0]%3)
		attrs := make([]relation.Attribute, ncols)
		for c := range attrs {
			attrs[c] = relation.Attribute{Name: "c" + strconv.Itoa(c), Kind: relation.KindFloat}
			if data[0]>>(2+c)&1 == 1 {
				attrs[c].Kind = relation.KindString
			}
		}
		strs := []string{"", "x", "z", "\x1f", "s:", "x\x1fs:y", "y\x1fs:z", "\x00null"}
		nums := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), 0, math.Copysign(0, -1), 1, 2}
		cell := func(b byte, kind relation.Kind) relation.Value {
			switch {
			case b%8 == 0:
				return relation.Null(kind)
			case kind == relation.KindString:
				return relation.String(strs[int(b>>3)%len(strs)])
			default:
				return relation.Float(nums[int(b>>3)%len(nums)])
			}
		}
		var batches [][][]relation.Value
		var batch [][]relation.Value
		var row []relation.Value
		for _, b := range data[1:] {
			if b == 0xff {
				batches = append(batches, batch)
				batch = nil
				continue
			}
			row = append(row, cell(b, attrs[len(row)].Kind))
			if len(row) == ncols {
				batch = append(batch, row)
				row = nil
			}
		}
		batches = append(batches, batch)
		var sets []attrset.Set
		for x := attrset.Set(0); x < attrset.Full(ncols)+1; x++ {
			sets = append(sets, x)
		}
		r := relation.New("fuzz", relation.NewSchema(attrs...))
		refineBatches(t, r, sets, batches)
	})
}
