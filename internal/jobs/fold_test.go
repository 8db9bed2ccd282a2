package jobs

import (
	"context"
	"reflect"
	"testing"
)

// withoutCSV is a submit record as a snapshot writes it for a terminal
// job: the spec without its CSV.
func withoutCSV(rec Record) Record {
	spec := *rec.Spec
	spec.CSV = ""
	rec.Spec = &spec
	return rec
}

// TestFoldRecordsMinimalSnapshot: the offline fold reduces history the
// same way the online compactor does — one submit per job plus its
// surviving counters and terminal state, in submission order. The done
// job keeps its start record, so its Attempts survives. Terminal jobs'
// submits lose their CSV; the running job's keeps it.
func TestFoldRecordsMinimalSnapshot(t *testing.T) {
	s1, s2, s3 := submitRec("j1", 1), submitRec("j2", 2), submitRec("j3", 3)
	history := []Record{
		s1,
		{Type: RecStart, ID: "j1", Attempt: 1},
		s2,
		{Type: RecRetry, ID: "j1", Attempt: 1},
		{Type: RecStart, ID: "j1", Attempt: 2},
		{Type: RecResult, ID: "j1", State: StateDone, Result: &Result{Lines: []string{"ok"}}},
		{Type: RecStart, ID: "j2", Attempt: 1},
		s3,
		{Type: RecCancel, ID: "j3"},
		{Type: RecResult, ID: "j1", State: StateFailed}, // duplicate result on terminal job: dropped
		{Type: RecStart, ID: "unknown", Attempt: 1},     // record for a never-submitted ID: dropped
	}
	got := FoldRecords(history)
	if s1.Spec.CSV != smallCSV || s3.Spec.CSV != smallCSV {
		t.Fatal("fold cleared the CSV of its input records")
	}
	want := []Record{
		withoutCSV(s1),
		{Type: RecStart, ID: "j1", Attempt: 2},
		{Type: RecRetry, ID: "j1", Attempt: 1},
		{Type: RecResult, ID: "j1", State: StateDone, Result: &Result{Lines: []string{"ok"}}},
		s2,
		{Type: RecStart, ID: "j2", Attempt: 1},
		withoutCSV(s3),
		{Type: RecCancel, ID: "j3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Folding is idempotent: a compacted log compacts to itself.
	if again := FoldRecords(got); !reflect.DeepEqual(again, got) {
		t.Fatalf("fold not idempotent:\n got %+v\nwant %+v", again, got)
	}
}

// TestCancelReasonSurvivesReplayAndCompaction: a job cancelled while
// running logs the client's cancel record and the run's own cancelled
// result in either order, and a queued cancel logs only the former.
// Replayed as logged or after an offline fold, every one comes back
// cancelled with the reason the live manager showed.
func TestCancelReasonSurvivesReplayAndCompaction(t *testing.T) {
	submit := submitRec("j1", 1)
	start := Record{Type: RecStart, ID: "j1", Attempt: 1}
	cancel := Record{Type: RecCancel, ID: "j1"}
	result := Record{Type: RecResult, ID: "j1", State: StateCancelled, Reason: cancelReason}
	for name, history := range map[string][]Record{
		"cancel-first": {submit, start, cancel, result},
		"result-first": {submit, start, result, cancel},
		"queued":       {submit, cancel},
	} {
		for _, recs := range [][]Record{history, FoldRecords(history)} {
			store := NewMemStore()
			for _, rec := range recs {
				if err := store.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
				t.Errorf("%s: cancelled job re-ran", name)
				return Result{}, nil
			})
			cfg.Store = store
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := m.Get("j1"); v.State != StateCancelled || v.Reason != cancelReason {
				t.Errorf("%s: replayed %d records to state %s reason %q", name, len(recs), v.State, v.Reason)
			}
			m.Close()
		}
	}
}

// TestCancelReasonSurvivesOnlineCompaction: cancels of a running and a
// queued job, compacted after every record, replay with their reasons.
func TestCancelReasonSurvivesOnlineCompaction(t *testing.T) {
	store := NewMemStore()
	started := make(chan struct{}, 1)
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return Result{Partial: true, Reason: "cancelled"}, nil
	})
	cfg.Store = store
	cfg.Runners = 1
	cfg.CompactEvery = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	running, _ := m.Submit(discoverSpec("tane"), "")
	<-started
	queued, _ := m.Submit(discoverSpec("fastfd"), "")
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if v := waitState(t, m, id, StateCancelled); v.Reason != cancelReason {
			t.Errorf("live %s reason = %q", id, v.Reason)
		}
	}
	m.Close()

	cfg.Run = func(ctx context.Context, s Spec) (Result, error) {
		t.Error("cancelled job re-ran")
		return Result{}, nil
	}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, id := range []string{queued.ID, running.ID} {
		if v, _ := m2.Get(id); v.State != StateCancelled || v.Reason != cancelReason {
			t.Errorf("replayed %s: state %s reason %q", id, v.State, v.Reason)
		}
	}
}
