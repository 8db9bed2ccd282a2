package engine

import (
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

func upgradeRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	schema := relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindInt},
	)
	r := relation.New("u", schema)
	for i := 0; i < rows; i++ {
		if err := r.Append([]relation.Value{relation.Int(i % 3), relation.Int(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestCacheUpgrade covers the streaming cache-carry contract: refined
// entries survive in place with exact byte accounting, and declined
// entries are evicted and rebuilt lazily.
func TestCacheUpgrade(t *testing.T) {
	r := upgradeRelation(t, 40)
	c := NewPartitionCache(r, 0)
	c.cap = 8
	a, b := attrset.Single(0), attrset.Single(1)
	ab := a.Union(b)
	pa := c.Get(a)
	c.Get(b)
	c.Get(ab)
	base := c.Stats()
	if base.Entries != 3 {
		t.Fatalf("entries %d", base.Entries)
	}

	// Grow the relation and refine only the singletons (the fdEngine
	// policy): multi-attribute memos are declined.
	old := r.Rows()
	for i := 0; i < 10; i++ {
		if err := r.Append([]relation.Value{relation.Int(i % 3), relation.Int(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	refA := partition.NewRefiner(r, a) // fresh refiners standing in for session state
	refB := partition.NewRefiner(r, b)
	_ = old
	c.Upgrade(func(x attrset.Set, _ *partition.Partition) *partition.Partition {
		switch x {
		case a:
			return refA.Partition()
		case b:
			return refB.Partition()
		}
		return nil
	})
	st := c.Stats()
	if st.Upgrades != base.Upgrades+2 || st.UpgradeEvictions != base.UpgradeEvictions+1 {
		t.Fatalf("upgrade stats %+v (base %+v)", st, base)
	}
	if st.Entries != 2 {
		t.Fatalf("entries after upgrade %d", st.Entries)
	}
	// Byte accounting must equal the sum of the resident partitions.
	wantBytes := refA.Partition().MemBytes() + refB.Partition().MemBytes()
	if st.Bytes != wantBytes {
		t.Fatalf("bytes %d, want %d", st.Bytes, wantBytes)
	}

	// The upgraded singleton is served from cache (a hit on the refreshed
	// memo, not a rebuild) and matches a from-scratch Build.
	preHits := st.Hits
	ga := c.Get(a)
	if ga != refA.Partition() {
		t.Fatal("upgraded entry was rebuilt instead of served")
	}
	if c.Stats().Hits != preHits+1 {
		t.Fatalf("hits %d, want %d", c.Stats().Hits, preHits+1)
	}
	if ga.NumRows() != r.Rows() {
		t.Fatalf("upgraded partition rows %d, want %d", ga.NumRows(), r.Rows())
	}
	// The evicted product rebuilds lazily against the new state.
	gab := c.Get(ab)
	want := partition.Build(r, ab)
	if gab.NumClasses() != want.NumClasses() || gab.Cardinality() != want.Cardinality() {
		t.Fatalf("rebuilt product: classes %d/%d card %d/%d",
			gab.NumClasses(), want.NumClasses(), gab.Cardinality(), want.Cardinality())
	}
	_ = pa
}

// TestCacheUpgradeNilRefine drops everything — the degenerate "no
// refiners" policy — and leaves an empty cache.
func TestCacheUpgradeNilRefine(t *testing.T) {
	r := upgradeRelation(t, 20)
	c := NewPartitionCache(r, 0)
	c.cap = 8
	c.Get(attrset.Single(0))
	c.Get(attrset.Single(1))
	c.Upgrade(nil)
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.UpgradeEvictions != 2 || st.Upgrades != 0 {
		t.Fatalf("stats after nil-refine upgrade: %+v", st)
	}
}
