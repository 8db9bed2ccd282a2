package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"testing"

	"deptree/internal/relation"
)

// parsedSpec is discoverSpec carrying its CSV already parsed, as the
// serving layer submits it.
func parsedSpec(t *testing.T, algo string) Spec {
	t.Helper()
	s := discoverSpec(algo)
	rel, err := relation.ReadCSVAuto("job", []byte(s.CSV), relation.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	s.Rel = rel
	return s
}

// heldRels reports the IDs of jobs that still hold a parsed relation.
func heldRels(m *Manager) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, j := range m.order {
		if j.rel != nil {
			out = append(out, j.id)
		}
	}
	return out
}

// TestSubmitRecordIgnoresRel: the parsed relation never reaches the
// store, so a submit record carrying one encodes to the same WAL bytes
// as the record without it.
func TestSubmitRecordIgnoresRel(t *testing.T) {
	walBytes := func(spec Spec) []byte {
		w, path := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
		if _, err := w.Replay(); err != nil {
			t.Fatal(err)
		}
		rec := submitRec("j000001-abababab", 1)
		rec.Spec = &spec
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	with := parsedSpec(t, "tane")
	without := with
	without.Rel = nil
	if a, b := walBytes(with), walBytes(without); !bytes.Equal(a, b) {
		t.Fatalf("WAL bytes differ with a parsed relation:\n%q\nvs\n%q", a, b)
	}
}

// TestPreparedRelLifetime: a queued job hands its submit-time relation
// to every attempt, a transient retry included; no job holds one once
// terminal; a cache hit never holds one; and no stored record carries
// one.
func TestPreparedRelLifetime(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]*relation.Relation{} // attempt -> relation handed in
	calls := 0
	store := NewMemStore()
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		mu.Lock()
		calls++
		n := calls
		seen[n] = s.Rel
		mu.Unlock()
		if s.Algo == "fail" {
			return Result{}, errors.New("run error")
		}
		if n == 1 {
			return Result{}, Transient{errors.New("injected fault")}
		}
		return Result{Lines: []string{s.Algo}}, nil
	})
	cfg.Store = store
	cfg.Runners = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := parsedSpec(t, "tane")
	v, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, StateDone)
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", got.Attempts)
	}
	mu.Lock()
	if seen[1] != spec.Rel || seen[2] != spec.Rel {
		t.Fatalf("attempts saw relations %p, %p; want the submitted %p", seen[1], seen[2], spec.Rel)
	}
	mu.Unlock()

	hit, err := m.Submit(parsedSpec(t, "tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	failed, _ := m.Submit(parsedSpec(t, "fail"), "")
	waitState(t, m, failed.ID, StateFailed)

	// A cancelled queued job: hold the only runner on a blocked run.
	release := make(chan struct{})
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		<-release
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg2.Runners = 1
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	first, _ := m2.Submit(parsedSpec(t, "tane"), "")
	queued, _ := m2.Submit(parsedSpec(t, "od"), "")
	if _, err := m2.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitState(t, m2, first.ID, StateDone)
	waitState(t, m2, queued.ID, StateCancelled)

	if held := heldRels(m); len(held) != 0 {
		t.Fatalf("terminal jobs still hold relations: %v", held)
	}
	if held := heldRels(m2); len(held) != 0 {
		t.Fatalf("terminal jobs still hold relations: %v", held)
	}
	recs, _ := store.Replay()
	for _, rec := range recs {
		if rec.Spec != nil && rec.Spec.Rel != nil {
			t.Fatalf("stored %s record for %s carries a relation", rec.Type, rec.ID)
		}
	}
}
