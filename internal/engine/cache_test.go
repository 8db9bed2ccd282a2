package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/gen"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// partEqual renders a partition canonically for comparison.
func partString(p *partition.Partition) string {
	return fmt.Sprintf("card=%d n=%d classes=%v", p.Cardinality(), p.NumRows(), p.Classes())
}

// TestCacheMatchesDirectBuild checks that the product construction
// yields exactly the partition a from-scratch build does, for every
// attribute set over a small relation.
func TestCacheMatchesDirectBuild(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 40, Seed: 11, ErrorRate: 0.1, VarietyRate: 0.2})
	c := NewPartitionCache(r, 0)
	full := attrset.Full(5) // columns 0..4 keep the 2^5 sweep cheap
	full.Subsets(func(x attrset.Set) {
		got := partString(c.Get(x))
		want := partString(partition.Build(r, x))
		if got != want {
			t.Errorf("π_%v: cache %s, direct %s", x.Cols(), got, want)
		}
	})
}

func TestCacheHits(t *testing.T) {
	r := gen.Categorical(30, []int{3, 4, 5}, 7)
	c := NewPartitionCache(r, 0)
	c.cap = 8
	x := attrset.Of(0, 1)
	c.Get(x)
	c.Get(x)
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits after repeated Get (hits=%d misses=%d)", st.Hits, st.Misses)
	}
	if st.Bytes <= 0 || st.Entries == 0 {
		t.Fatalf("stats missing footprint: %+v", st)
	}
}

func TestCacheBoundAndEviction(t *testing.T) {
	r := gen.Categorical(30, []int{3, 4, 5}, 7)
	// Capacity 2 cannot even hold one product chain: every Get thrashes.
	// The cache must stay bounded and keep returning correct partitions.
	c := NewPartitionCache(r, 0)
	c.cap = 2
	x := attrset.Of(0, 1)
	c.Get(x)
	if c.Len() > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", c.Len())
	}
	c.Get(attrset.Of(1, 2))
	c.Get(attrset.Of(0, 2))
	got := partString(c.Get(x))
	want := partString(partition.Build(r, x))
	if got != want {
		t.Fatalf("after eviction: cache %s, direct %s", got, want)
	}
	if c.Len() > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", c.Len())
	}
}

// TestCacheConcurrentGets hammers one cache from many goroutines (run under
// -race) and checks every result against a direct build.
func TestCacheConcurrentGets(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 60, Seed: 13, ErrorRate: 0.05})
	c := NewPartitionCache(r, 0)
	c.cap = 16 // small capacity forces eviction races
	var sets []attrset.Set
	attrset.Full(6).Subsets(func(x attrset.Set) { sets = append(sets, x) })
	want := make(map[attrset.Set]string, len(sets))
	for _, x := range sets {
		want[x] = partString(partition.Build(r, x))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				x := sets[(i+g*7)%len(sets)]
				if got := partString(c.Get(x)); got != want[x] {
					t.Errorf("π_%v mismatch under concurrency", x.Cols())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// propertyRelation draws a relation whose columns mix the shapes the
// product routes meet: key-like, constant, few-valued strings, and floats
// over NaN payloads, ±0 and nulls.
func propertyRelation(rng *rand.Rand) *relation.Relation {
	rows := 1 + rng.Intn(80)
	cols := 4 + rng.Intn(4)
	attrs := make([]relation.Attribute, cols)
	shapes := make([]int, cols)
	for c := range attrs {
		shapes[c] = rng.Intn(4)
		kind := relation.KindString
		if shapes[c] == 3 {
			kind = relation.KindFloat
		}
		attrs[c] = relation.Attribute{Name: fmt.Sprintf("c%d", c), Kind: kind}
	}
	floats := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), 0, math.Copysign(0, -1), 1.5}
	r := relation.New("property", relation.NewSchema(attrs...))
	row := make([]relation.Value, cols)
	for i := 0; i < rows; i++ {
		for c := range row {
			switch shapes[c] {
			case 0: // key-like: mostly distinct
				row[c] = relation.String(fmt.Sprint(rng.Intn(4 * rows)))
			case 1: // constant
				row[c] = relation.String("k")
			case 2:
				row[c] = relation.String(fmt.Sprint(rng.Intn(3)))
			default:
				if k := rng.Intn(len(floats) + 1); k < len(floats) {
					row[c] = relation.Float(floats[k])
				} else {
					row[c] = relation.Null(relation.KindFloat)
				}
			}
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// TestCacheProductRoutesMatchBuild: whatever route builds π_X (two
// resident parents, one parent and a singleton, or the chain), every Get
// returns exactly partition.Build's partition. Get orders are random
// walks over the whole lattice, some level-wise so parents are resident,
// some shuffled so chains start cold; one goroutine or four walk one
// cache under a byte bound of a few partitions, so entries are evicted
// between and during builds.
func TestCacheProductRoutesMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var evictions uint64
	for trial := 0; trial < 40; trial++ {
		r := propertyRelation(rng)
		var sets []attrset.Set
		attrset.Full(r.Cols()).Subsets(func(x attrset.Set) { sets = append(sets, x) })
		want := make(map[attrset.Set]string, len(sets))
		for _, x := range sets {
			want[x] = partString(partition.Build(r, x))
		}
		levelWise := trial%2 == 0
		for _, workers := range []int{1, 4} {
			c := NewPartitionCache(r, 3*(64+8*int64(r.Rows())))
			orders := make([][]attrset.Set, workers)
			for w := range orders {
				order := make([]attrset.Set, 2*len(sets))
				for i := range order {
					order[i] = sets[rng.Intn(len(sets))]
				}
				if levelWise {
					sort.SliceStable(order, func(i, j int) bool { return order[i].Len() < order[j].Len() })
				}
				orders[w] = order
			}
			var wg sync.WaitGroup
			for _, order := range orders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, x := range order {
						if got := partString(c.Get(x)); got != want[x] {
							t.Errorf("trial %d workers %d: π_%v = %s, Build %s", trial, workers, x.Cols(), got, want[x])
							return
						}
					}
				}()
			}
			wg.Wait()
			evictions += c.Stats().Evictions
		}
	}
	if evictions == 0 {
		t.Fatal("the byte bound never evicted: the test does not cover eviction")
	}
}
