package engine

import (
	"fmt"
	"sync"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/gen"
	"deptree/internal/partition"
)

// partEqual renders a partition canonically for comparison.
func partString(p *partition.Partition) string {
	return fmt.Sprintf("card=%d n=%d classes=%v", p.Cardinality(), p.NumRows(), p.Classes())
}

// TestCacheMatchesDirectBuild checks that the product-of-singletons
// construction yields exactly the partition a from-scratch build does, for
// every attribute set over a small relation.
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
