package oddisc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deptree/internal/deps/od"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// odStrings renders a result for order-insensitive-free comparison (the
// output is already sorted by String).
func odStrings(ods []od.OD) []string {
	out := make([]string, len(ods))
	for i, o := range ods {
		out[i] = o.String()
	}
	return out
}

func sameODs(t *testing.T, label string, set, pair Result) {
	t.Helper()
	a, b := odStrings(set.ODs), odStrings(pair.ODs)
	if len(a) != len(b) {
		t.Fatalf("%s: set-based found %d ODs, pairwise %d:\n set=%v\n pair=%v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: OD %d differs: set=%q pair=%q", label, i, a[i], b[i])
		}
	}
	if set.Partial != pair.Partial || set.Completed != pair.Completed {
		t.Fatalf("%s: partials diverge: set=(%v,%d) pair=(%v,%d)",
			label, set.Partial, set.Completed, pair.Partial, pair.Completed)
	}
}

// nastyRelation builds a small numeric relation mixing NaN, ±Inf, nulls
// and ties — every shape that stresses Compare totality and the
// set-based FD/order-compatibility decomposition.
func nastyRelation(rng *rand.Rand, rows, cols int) *relation.Relation {
	attrs := make([]relation.Attribute, cols)
	for c := range attrs {
		attrs[c] = relation.Attribute{Name: fmt.Sprintf("c%d", c), Kind: relation.KindFloat}
	}
	r := relation.New("nasty", relation.NewSchema(attrs...))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0, 1, -1, 2.5}
	for i := 0; i < rows; i++ {
		row := make([]relation.Value, cols)
		for c := range row {
			switch rng.Intn(10) {
			case 0:
				row[c] = relation.Null(relation.KindFloat)
			case 1, 2, 3:
				row[c] = relation.Float(specials[rng.Intn(len(specials))])
			default:
				row[c] = relation.Float(float64(rng.Intn(5)))
			}
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// TestSetBasedMatchesPairwiseOracle is the property test pinning the
// set-based core to the pairwise oracle: identical output on
// NaN/±Inf/null mixes, for every worker count, including the soundness
// check that every reported OD actually holds.
func TestSetBasedMatchesPairwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		rows := 2 + rng.Intn(30)
		cols := 2 + rng.Intn(4)
		r := nastyRelation(rng, rows, cols)
		for _, workers := range []int{1, 2, 4, 7} {
			opts := Options{Exec: engine.Exec{Workers: workers}}
			set := DiscoverContext(context.Background(), r, opts)
			pair := discoverPairwise(context.Background(), r, opts)
			sameODs(t, fmt.Sprintf("trial %d workers %d", trial, workers), set, pair)
			for _, o := range set.ODs {
				if !o.Holds(r) {
					t.Fatalf("trial %d: set-based emitted invalid OD %v", trial, o)
				}
			}
		}
	}
}

// TestSetBasedMatchesPairwiseOnCorpora runs both cores over the seeded
// generator corpora the differential harness uses.
func TestSetBasedMatchesPairwiseOnCorpora(t *testing.T) {
	corpora := map[string]*relation.Relation{
		"table7": gen.Table7(),
		"series": gen.Series(80, -10, 10, 0.3, 7),
		"hotels": gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 3, ErrorRate: 0.05}),
	}
	for name, r := range corpora {
		for _, workers := range []int{1, 4} {
			set := DiscoverContext(context.Background(), r, Options{Exec: engine.Exec{Workers: workers}})
			pair := discoverPairwise(context.Background(), r, Options{Exec: engine.Exec{Workers: workers}})
			sameODs(t, fmt.Sprintf("%s workers %d", name, workers), set, pair)
		}
	}
}

// FuzzSetODAgainstPairwise drives the two cores with fuzzer-shaped
// float relations: bytes decode to a column-major float matrix with
// NaN/±Inf/null escapes.
func FuzzSetODAgainstPairwise(f *testing.F) {
	f.Add([]byte{2, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 0, 0, 0, 255, 254, 253, 7, 7, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cols := 2 + int(data[0])%3
		data = data[1:]
		rows := len(data) / cols
		if rows < 2 {
			return
		}
		if rows > 40 {
			rows = 40
		}
		attrs := make([]relation.Attribute, cols)
		for c := range attrs {
			attrs[c] = relation.Attribute{Name: fmt.Sprintf("c%d", c), Kind: relation.KindFloat}
		}
		r := relation.New("fuzz", relation.NewSchema(attrs...))
		for i := 0; i < rows; i++ {
			row := make([]relation.Value, cols)
			for c := range row {
				b := data[i*cols+c]
				switch b {
				case 255:
					row[c] = relation.Float(math.NaN())
				case 254:
					row[c] = relation.Float(math.Inf(1))
				case 253:
					row[c] = relation.Float(math.Inf(-1))
				case 252:
					row[c] = relation.Null(relation.KindFloat)
				default:
					row[c] = relation.Float(float64(b % 7))
				}
			}
			if err := r.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 3} {
			set := DiscoverContext(context.Background(), r, Options{Exec: engine.Exec{Workers: workers}})
			pair := discoverPairwise(context.Background(), r, Options{Exec: engine.Exec{Workers: workers}})
			sameODs(t, fmt.Sprintf("workers %d", workers), set, pair)
		}
	})
}
