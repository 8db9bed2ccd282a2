package gen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

func TestTable1Shape(t *testing.T) {
	r := Table1()
	if r.Rows() != 8 || r.Cols() != 5 {
		t.Fatalf("Table1 shape %dx%d", r.Rows(), r.Cols())
	}
	// t3/t4 (rows 2,3): equal address, different region — the fd1 violation.
	a := r.Schema().MustIndex("address")
	reg := r.Schema().MustIndex("region")
	if !r.Value(2, a).Equal(r.Value(3, a)) {
		t.Error("t3/t4 must share address")
	}
	if r.Value(2, reg).Equal(r.Value(3, reg)) {
		t.Error("t3/t4 must differ on region")
	}
	// t8 has the price-0 error.
	if !r.Value(7, r.Schema().MustIndex("price")).Equal(relation.Int(0)) {
		t.Error("t8 price must be 0")
	}
}

func TestTable5Measures(t *testing.T) {
	r := Table5()
	if r.Rows() != 4 {
		t.Fatalf("Table5 rows = %d", r.Rows())
	}
	// |dom(address)| = 2, |dom(address, region)| = 3 (paper §2.1.1).
	a := r.Schema().MustIndex("address")
	reg := r.Schema().MustIndex("region")
	if n := r.DistinctCount([]int{a}); n != 2 {
		t.Errorf("|dom(address)| = %d, want 2", n)
	}
	if n := r.DistinctCount([]int{a, reg}); n != 3 {
		t.Errorf("|dom(address,region)| = %d, want 3", n)
	}
	// name is constant: |dom(name)| = 1, |dom(name,address)| = 2.
	nm := r.Schema().MustIndex("name")
	if n := r.DistinctCount([]int{nm}); n != 1 {
		t.Errorf("|dom(name)| = %d, want 1", n)
	}
	if n := r.DistinctCount([]int{nm, a}); n != 2 {
		t.Errorf("|dom(name,address)| = %d, want 2", n)
	}
}

func TestTable6Shape(t *testing.T) {
	r := Table6()
	if r.Rows() != 6 || r.Cols() != 8 {
		t.Fatalf("Table6 shape %dx%d", r.Rows(), r.Cols())
	}
	src := r.Schema().MustIndex("source")
	n1, n2 := 0, 0
	for i := 0; i < r.Rows(); i++ {
		switch r.Value(i, src).Str() {
		case "s1":
			n1++
		case "s2":
			n2++
		}
	}
	if n1 != 3 || n2 != 3 {
		t.Errorf("sources: s1=%d s2=%d", n1, n2)
	}
}

func TestTable7Monotone(t *testing.T) {
	r := Table7()
	if r.Rows() != 4 {
		t.Fatalf("Table7 rows = %d", r.Rows())
	}
	// subtotal strictly increases, avg/night strictly decreases with nights.
	sub := r.Schema().MustIndex("subtotal")
	avg := r.Schema().MustIndex("avg/night")
	for i := 1; i < r.Rows(); i++ {
		if r.Value(i, sub).Num() <= r.Value(i-1, sub).Num() {
			t.Error("subtotal must increase")
		}
		if r.Value(i, avg).Num() >= r.Value(i-1, avg).Num() {
			t.Error("avg/night must decrease")
		}
	}
}

func TestDataspace(t *testing.T) {
	r := Dataspace()
	if r.Rows() != 3 || r.Cols() != 5 {
		t.Fatalf("Dataspace shape %dx%d", r.Rows(), r.Cols())
	}
	if !r.Value(0, r.Schema().MustIndex("city")).IsNull() {
		t.Error("t1 city must be null")
	}
}

func TestHotelsDeterministic(t *testing.T) {
	a := Hotels(HotelConfig{Rows: 50, Seed: 9})
	b := Hotels(HotelConfig{Rows: 50, Seed: 9})
	if a.Rows() != 50 {
		t.Fatalf("rows = %d", a.Rows())
	}
	for i := 0; i < a.Rows(); i++ {
		for c := 0; c < a.Cols(); c++ {
			if !a.Value(i, c).Equal(b.Value(i, c)) {
				t.Fatalf("nondeterministic at (%d,%d)", i, c)
			}
		}
	}
}

func TestHotelsCleanSatisfiesFD(t *testing.T) {
	r := Hotels(HotelConfig{Rows: 300, Seed: 1}) // no variety, no errors
	addr := attrset.Single(r.Schema().MustIndex("address"))
	p := partition.Build(r, addr)
	codes, _ := r.Codes(r.Schema().MustIndex("region"))
	if g3 := p.G3(codes); g3 != 0 {
		t.Errorf("clean data: g3(address→region) = %v, want 0", g3)
	}
	// subtotal = nights * price everywhere.
	ni := r.Schema().MustIndex("nights")
	pi := r.Schema().MustIndex("price")
	si := r.Schema().MustIndex("subtotal")
	for i := 0; i < r.Rows(); i++ {
		if r.Value(i, ni).Num()*r.Value(i, pi).Num() != r.Value(i, si).Num() {
			t.Fatalf("row %d: subtotal != nights*price", i)
		}
	}
}

func TestHotelsErrorInjection(t *testing.T) {
	r := Hotels(HotelConfig{Rows: 500, Seed: 2, ErrorRate: 0.2})
	addr := attrset.Single(r.Schema().MustIndex("address"))
	p := partition.Build(r, addr)
	codes, _ := r.Codes(r.Schema().MustIndex("region"))
	g3 := p.G3(codes)
	if g3 == 0 {
		t.Error("error injection should break address→region")
	}
	if g3 > 0.25 {
		t.Errorf("g3 = %v, implausibly high for ErrorRate 0.2", g3)
	}
}

func TestHotelsVarietyDistinctFromErrors(t *testing.T) {
	r := Hotels(HotelConfig{Rows: 400, Seed: 3, VarietyRate: 0.3})
	reg := r.Schema().MustIndex("region")
	suffixed := 0
	for i := 0; i < r.Rows(); i++ {
		if len(r.Value(i, reg).Str()) > len("Region00") {
			suffixed++
		}
	}
	if suffixed == 0 {
		t.Error("variety should produce suffixed regions")
	}
	// Variety breaks strict equality but every variant keeps its base city
	// name as a prefix — similarity-aware dependencies must still hold.
	for i := 0; i < r.Rows(); i++ {
		got := r.Value(i, reg).Str()
		base := got
		if idx := strings.IndexByte(got, ','); idx >= 0 {
			base = got[:idx]
		}
		if CityIndex(base) < 0 {
			t.Fatalf("region %q lost its base form", got)
		}
	}
}

func TestHotelsDuplicates(t *testing.T) {
	r := Hotels(HotelConfig{Rows: 300, Seed: 4, DuplicateRate: 0.3})
	src := r.Schema().MustIndex("source")
	dups := 0
	for i := 0; i < r.Rows(); i++ {
		if r.Value(i, src).Str() == "s2" {
			dups++
		}
	}
	if dups < 50 || dups > 150 {
		t.Errorf("duplicate count %d outside plausible band", dups)
	}
}

// A duplicate of a duplicate shortens its address by two bytes each time
// ("No.1, 0 Street" -> "#1, 0 Street" -> "#0 Street" -> ...); a chain long
// enough used to slice past the end and panic. This seed did, at 4,241
// rows.
func TestHotelsDuplicateChainDoesNotPanic(t *testing.T) {
	const rows, seed = 4241, 0x7dd50b7617b5e7b9
	r := Hotels(HotelConfig{Rows: rows, Seed: seed, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1})
	if r.Rows() != rows {
		t.Fatalf("rows = %d, want %d", r.Rows(), rows)
	}
}

// The address guard changes no draw: seeds that never reached a short
// address produce the same bytes as before it (SHA-256 of the CSV).
func TestHotelsOutputGolden(t *testing.T) {
	for _, c := range []struct {
		cfg  HotelConfig
		want string
	}{
		{HotelConfig{Rows: 300, Seed: 4, DuplicateRate: 0.3}, "f1c9c179b5d4da2425fa68a51d5c48dbef6b7665ea0a68128104f41eb3b92f0e"},
		{HotelConfig{Rows: 2000, Seed: 7, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1}, "6e1d7608ad13370fca9977f19a68790330ea0d17d6c1649e6375cd57b3bc3310"},
		{HotelConfig{Rows: 500, Seed: 11, ErrorRate: 0.1, VarietyRate: 0.1, DuplicateRate: 0.5}, "00b8837d685e05175e607f771d40c3cf1b8a76137f126c51594b221025564b51"},
	} {
		var buf bytes.Buffer
		if err := relation.WriteCSV(Hotels(c.cfg), &buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%+v: sha256 %s, want %s", c.cfg, got, c.want)
		}
	}
}

func TestCategorical(t *testing.T) {
	r := Categorical(100, []int{3, 5, 7}, 11)
	if r.Rows() != 100 || r.Cols() != 3 {
		t.Fatalf("shape %dx%d", r.Rows(), r.Cols())
	}
	for c, want := range []int{3, 5, 7} {
		if n := r.DistinctCount([]int{c}); n > want {
			t.Errorf("col %d cardinality %d > %d", c, n, want)
		}
	}
}

func TestWithFDPlantsFD(t *testing.T) {
	r := WithFD(400, []int{4, 4}, 0, 5)
	x := attrset.Of(0, 1)
	p := partition.Build(r, x)
	codes, _ := r.Codes(2)
	if g3 := p.G3(codes); g3 != 0 {
		t.Errorf("planted FD broken: g3 = %v", g3)
	}
	noisy := WithFD(400, []int{4, 4}, 0.3, 5)
	pn := partition.Build(noisy, x)
	codesN, _ := noisy.Codes(2)
	if g3 := pn.G3(codesN); g3 == 0 {
		t.Error("noise should break the planted FD")
	}
}

func TestSeries(t *testing.T) {
	r := Series(200, 9, 11, 0, 6)
	if r.Rows() != 200 {
		t.Fatalf("rows = %d", r.Rows())
	}
	for i := 1; i < r.Rows(); i++ {
		step := r.Value(i, 1).Num() - r.Value(i-1, 1).Num()
		if step < 9 || step > 11 {
			t.Fatalf("clean series step %v outside [9,11]", step)
		}
	}
	noisy := Series(500, 9, 11, 0.2, 7)
	bad := 0
	for i := 1; i < noisy.Rows(); i++ {
		step := noisy.Value(i, 1).Num() - noisy.Value(i-1, 1).Num()
		if step < 9 || step > 11 {
			bad++
		}
	}
	if bad == 0 {
		t.Error("violationRate should inject out-of-interval steps")
	}
}
