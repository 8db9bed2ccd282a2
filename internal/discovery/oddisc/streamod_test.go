package oddisc

import (
	"context"
	"reflect"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// TestRevalidateBudgetStopCommitsNothing: a revalidation the pool's task
// budget stops reports Partial and commits nothing — the held set and
// the dirty rows stay — and a retry on an unbudgeted pool ends on the
// set from-scratch discovery finds over all rows.
func TestRevalidateBudgetStopCommitsNothing(t *testing.T) {
	plan := gen.AppendBatches(gen.AppendConfig{Wide: true, Ord: 4, Tail: 2, BaseRows: 120, BatchRows: 40, Batches: 1, DriftAt: 1, Seed: 7})
	r := plan.Base
	s, res := NewStream(context.Background(), r, Options{})
	if s == nil {
		t.Fatalf("seeding discovery partial: %s", res.Reason)
	}
	before := odStrings(s.Held())
	if len(before) <= revalidateStripe {
		t.Fatalf("%d held ODs fit one stripe; the budget stop needs more", len(before))
	}
	old := r.Rows()
	if _, err := relation.NewAppender(r, relation.Limits{}).AppendBatch(plan.Batches[0]); err != nil {
		t.Fatal(err)
	}
	s.Ingest(old)

	pool := engine.Exec{Workers: 2, Budget: engine.Budget{MaxTasks: revalidateStripe}}.Pool(context.Background())
	removed, res := s.Revalidate(pool)
	pool.Close()
	if !res.Partial || removed != nil || res.Completed != revalidateStripe {
		t.Fatalf("budgeted revalidation: partial %v, removed %d, completed %d; want partial after one stripe, nothing removed",
			res.Partial, len(removed), res.Completed)
	}
	if got := odStrings(s.Held()); !reflect.DeepEqual(got, before) {
		t.Fatalf("stopped revalidation changed the held set:\nbefore %v\nafter  %v", before, got)
	}

	pool = engine.Exec{Workers: 2}.Pool(context.Background())
	defer pool.Close()
	if _, res = s.Revalidate(pool); res.Partial {
		t.Fatalf("unbudgeted retry partial: %s", res.Reason)
	}
	want := DiscoverContext(context.Background(), r, Options{})
	got, w := odStrings(s.Held()), odStrings(want.ODs)
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("retry held %v, from scratch %v", got, w)
	}
	if len(w) == len(before) {
		t.Fatal("the drift batch broke no held OD")
	}
}
