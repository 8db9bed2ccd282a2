package jobs

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// lifetimeCSV is a small relation of its own for each job name, so a
// stored submit record can be matched to the CSV its job was given.
func lifetimeCSV(name string) string { return smallCSV + name + ",oslo,1\n" }

// heldCSVs maps every job that still holds its spec CSV to that CSV.
func heldCSVs(m *Manager) map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]string{}
	for _, j := range m.order {
		if j.spec.CSV != "" {
			out[j.id] = j.spec.CSV
		}
	}
	return out
}

// snapshotCSVs maps every job whose submit record in a compaction
// snapshot taken now would carry a CSV to that CSV.
func snapshotCSVs(m *Manager) map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]string{}
	for _, rec := range snapshot(m.order) {
		if rec.Type == RecSubmit && rec.Spec.CSV != "" {
			out[rec.ID] = rec.Spec.CSV
		}
	}
	return out
}

// TestSpecCSVLifetime: a queued or running job keeps its CSV in the
// manager and in a compaction snapshot; every terminal route (done,
// partial, failed, cancelled while queued or running, cache hit,
// idempotent resubmit) leaves the job without one. The submit records
// the store kept still carry each job's CSV byte for byte, but for the
// cache hit's, which carries none, and a replay of them drops the CSVs
// again and serves the same views.
func TestSpecCSVLifetime(t *testing.T) {
	store := NewMemStore()
	started := make(chan struct{}, 1)
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		switch s.Algo {
		case "partial":
			return Result{Partial: true, Reason: "deadline"}, nil
		case "fail":
			return Result{}, errors.New("run error")
		case "block":
			started <- struct{}{}
			<-ctx.Done()
			return Result{Partial: true, Reason: "cancelled"}, nil
		}
		return Result{Lines: []string{s.Algo}}, nil
	})
	cfg.Store = store
	cfg.Runners = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	submitted := map[string]string{} // job ID -> CSV it was submitted with
	submit := func(name, algo, idemKey string) View {
		t.Helper()
		v, err := m.Submit(Spec{Kind: "discover", Algo: algo, CSV: lifetimeCSV(name)}, idemKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := submitted[v.ID]; !seen {
			submitted[v.ID] = lifetimeCSV(name)
		}
		return v
	}

	done := submit("done", "tane", "key-1")
	waitState(t, m, done.ID, StateDone)
	if again := submit("other", "fastfd", "key-1"); again.ID != done.ID {
		t.Fatalf("idempotent resubmit returned %s, want %s", again.ID, done.ID)
	}
	hit := submit("done", "tane", "")
	if !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("resubmission: cache hit %v state %s, want a done cache hit", hit.CacheHit, hit.State)
	}
	submitted[hit.ID] = "" // a cache hit is terminal at once: its submit record drops the CSV
	waitState(t, m, submit("partial", "partial", "").ID, StatePartial)
	waitState(t, m, submit("fail", "fail", "").ID, StateFailed)

	running := submit("running", "block", "")
	<-started
	queued := submit("queued", "tane", "")
	live := map[string]string{running.ID: lifetimeCSV("running"), queued.ID: lifetimeCSV("queued")}
	if got := heldCSVs(m); !reflect.DeepEqual(got, live) {
		t.Fatalf("live jobs holding CSVs = %v, want the running and queued ones %v", got, live)
	}
	if got := snapshotCSVs(m); !reflect.DeepEqual(got, live) {
		t.Fatalf("snapshot submits carrying CSVs = %v, want the running and queued ones %v", got, live)
	}

	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, queued.ID, StateCancelled)
	waitState(t, m, running.ID, StateCancelled)

	if got := heldCSVs(m); len(got) != 0 {
		t.Fatalf("terminal jobs still hold CSVs: %v", got)
	}
	if got := snapshotCSVs(m); len(got) != 0 {
		t.Fatalf("snapshot submits of terminal jobs carry CSVs: %v", got)
	}
	recs, _ := store.Replay()
	stored := map[string]string{}
	for _, rec := range recs {
		if rec.Type == RecSubmit {
			if _, dup := stored[rec.ID]; dup {
				t.Fatalf("job %s has two submit records", rec.ID)
			}
			stored[rec.ID] = rec.Spec.CSV
		}
	}
	if !reflect.DeepEqual(stored, submitted) {
		t.Fatalf("stored submit CSVs = %q, want the submitted %q", stored, submitted)
	}
	views := m.List()
	for i, v := range views {
		views[i], _ = m.Get(v.ID)
	}
	m.Close()

	cfg.Run = func(ctx context.Context, s Spec) (Result, error) {
		t.Error("terminal job re-ran after replay")
		return Result{}, nil
	}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := heldCSVs(m2); len(got) != 0 {
		t.Fatalf("replayed terminal jobs hold CSVs: %v", got)
	}
	for _, want := range views {
		if got, _ := m2.Get(want.ID); !reflect.DeepEqual(got, want) {
			t.Errorf("replayed view of %s:\n got %+v\nwant %+v", want.ID, got, want)
		}
	}
}

// TestCacheHitReplaysWithoutResultRecords: every result append fails,
// the original job's as well, so the log holds the original's submit and
// the cache hit's, and no result record. The hit's one submit record
// carries its answer: replay serves it done without running it, and
// re-runs only the original, from its own CSV.
func TestCacheHitReplaysWithoutResultRecords(t *testing.T) {
	store := NewMemStore()
	store.SetFaultHook(func(op string, rec Record) error {
		if op == "append" && rec.Type == RecResult {
			return errors.New("crashed before the result record")
		}
		return nil
	})
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{"dep"}}, nil
	})
	cfg.Store = store
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateDone)
	hit, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("resubmit = %+v, want a done cache hit", hit)
	}
	m.Close()

	recs, _ := store.Replay()
	crashed := NewMemStore()
	for _, rec := range recs {
		if rec.Type == RecResult {
			t.Fatalf("result record %+v became durable under the fault", rec)
		}
		crashed.Append(rec)
	}
	cfg.Store = crashed
	cfg.Run = func(ctx context.Context, s Spec) (Result, error) {
		if s.CSV == "" {
			t.Error("a job without a CSV ran after replay")
		}
		return Result{Lines: []string{"dep"}}, nil
	}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	v, _ := m2.Get(hit.ID)
	if v.State != StateDone || !v.CacheHit || v.Result == nil || !reflect.DeepEqual(v.Result.Lines, []string{"dep"}) {
		t.Fatalf("replayed cache hit = %+v, want done with the cached result", v)
	}
	waitState(t, m2, first.ID, StateDone)
}
