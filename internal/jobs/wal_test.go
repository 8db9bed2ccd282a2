package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deptree/internal/fsx"
	"deptree/internal/wal"
)

func openTestWAL(t *testing.T, opts WALOptions) (*WALStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

func submitRec(id string, seq int64) Record {
	return Record{
		Type: RecSubmit, ID: id, Seq: seq,
		Spec:        &Spec{Kind: "discover", Algo: "tane", CSV: smallCSV},
		Fingerprint: strings.Repeat("ab", 32),
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	w, path := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if _, err := w.Replay(); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		submitRec("j000001-abababab", 1),
		{Type: RecStart, ID: "j000001-abababab", Attempt: 1},
		{Type: RecResult, ID: "j000001-abababab", State: StateDone,
			Result: &Result{Lines: []string{"[a]->[b]"}}},
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if got[0].Spec == nil || got[0].Spec.Algo != "tane" {
		t.Fatalf("submit spec lost: %+v", got[0])
	}
	if got[2].Result == nil || got[2].Result.Lines[0] != "[a]->[b]" {
		t.Fatalf("result payload lost: %+v", got[2])
	}
}

func TestWALTornTailDroppedAndTruncated(t *testing.T) {
	w, path := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
	w.Replay()
	w.Append(submitRec("j000001-abababab", 1))
	w.Append(submitRec("j000002-abababab", 2))
	w.Close()

	// Simulate a crash mid-write: a frame cut partway through.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.EncodeFrame([]byte(`{"type":"result","id":"j000001-abababab"}`))
	f.Write(frame[:len(frame)/2])
	f.Close()

	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (torn tail dropped)", len(recs))
	}
	if w2.TornTail() != 1 {
		t.Fatalf("TornTail = %d, want 1", w2.TornTail())
	}
	// The file was truncated back to the valid prefix, so a new append
	// never concatenates onto the partial record.
	if err := w2.Append(submitRec("j000003-abababab", 3)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	recs, err = w3.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].ID != "j000003-abababab" {
		t.Fatalf("post-truncate append corrupted: %d records", len(recs))
	}
}

// TestWALMidLogFlipDetected is the regression for the silent-data-loss
// bug this format exists to fix: with the old JSONL log a single flipped
// byte mid-log was indistinguishable from a torn tail, so Replay
// silently truncated every acknowledged record after it. The framed log
// must instead report a typed *wal.ErrCorruptRecord with the offset —
// and with Quarantine opt in, sidecar the damage and keep the verified
// prefix.
func TestWALMidLogFlipDetected(t *testing.T) {
	w, path := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
	w.Replay()
	w.Append(submitRec("j000001-abababab", 1))
	w.Append(submitRec("j000002-abababab", 2))
	w.Append(submitRec("j000003-abababab", 3))
	w.Close()

	// Flip one byte in the middle of the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(data) / 2
	f, _ := os.OpenFile(path, os.O_WRONLY, 0o644)
	f.Seek(int64(off), 0)
	f.Write([]byte{data[off] ^ 0x01})
	f.Close()

	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	_, rerr := w2.Replay()
	var corrupt *wal.ErrCorruptRecord
	if !errors.As(rerr, &corrupt) {
		t.Fatalf("mid-log flip replay = %v, want *wal.ErrCorruptRecord (silent truncation is the pre-framing bug)", rerr)
	}
	if corrupt.Offset <= 0 || corrupt.Offset >= int64(len(data)) {
		t.Fatalf("corrupt offset %d out of file range", corrupt.Offset)
	}

	// Quarantine mode recovers: verified prefix replays, damage sidecars.
	wq, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1, Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wq.Close()
	recs, err := wq.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 3 {
		t.Fatalf("quarantine replayed %d records, want the verified prefix (1 or 2)", len(recs))
	}
	if wq.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", wq.Quarantined())
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
}

func TestWALBatchedSync(t *testing.T) {
	w, _ := openTestWAL(t, WALOptions{SyncEvery: 4, SyncInterval: -1})
	w.Replay()
	for i := int64(1); i <= 8; i++ {
		if err := w.Append(submitRec("j", i)); err != nil {
			t.Fatal(err)
		}
	}
	appends, syncs := w.Stats()
	if appends != 8 {
		t.Fatalf("appends = %d, want 8", appends)
	}
	if syncs != 2 {
		t.Fatalf("syncs = %d, want 2 (batched every 4)", syncs)
	}
	// Explicit Sync with nothing dirty is a no-op.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, syncs = w.Stats(); syncs != 2 {
		t.Fatalf("clean Sync bumped count to %d", syncs)
	}
}

func TestWALBackgroundFlusher(t *testing.T) {
	w, _ := openTestWAL(t, WALOptions{SyncEvery: 1000, SyncInterval: 5 * time.Millisecond})
	w.Replay()
	if err := w.Append(submitRec("j", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, syncs := w.Stats(); syncs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALCompactReplacesHistory(t *testing.T) {
	w, path := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
	w.Replay()
	for i := int64(1); i <= 20; i++ {
		w.Append(submitRec("j", i))
	}
	before, _ := os.Stat(path)
	snapshot := []Record{submitRec("j000001-abababab", 20)}
	if err := w.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	// Appends continue cleanly on the compacted file.
	if err := w.Append(submitRec("j000002-abababab", 21)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 20 || recs[1].Seq != 21 {
		t.Fatalf("post-compact replay = %d records (%+v)", len(recs), recs)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("compact temp file left behind")
	}
}

func TestWALAppendBeforeReplayRejected(t *testing.T) {
	// Until Replay truncates a possible torn tail, an append could
	// concatenate onto a partial record and destroy both.
	w, _ := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err := w.Append(submitRec("j", 1)); !errors.Is(err, ErrNotReplayed) {
		t.Fatalf("append before replay = %v, want ErrNotReplayed", err)
	}
	if _, err := w.Replay(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(submitRec("j", 1)); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionConcurrentSubmitsSurviveRestart(t *testing.T) {
	// Submissions racing aggressive compaction: every acknowledged job
	// ID must replay after a restart. A submit record appended between
	// the compaction snapshot and the log rename would be discarded with
	// the old file, turning a 202-acknowledged ID into a 404.
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg.Store = w
	cfg.CompactEvery = 2 // compact near-constantly while submissions land
	cfg.Runners = 8      // many concurrent finalize appends contend with compaction
	cfg.Queue = 512
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const groups, perGroup = 8, 25
	ids := make([][]string, groups)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGroup; i++ {
				csv := fmt.Sprintf("a,b\ng%d-%d,1\nx,2\n", g, i) // fresh fingerprint each
				v, err := m.Submit(Spec{Kind: "discover", Algo: "tane", CSV: csv}, "")
				if err != nil {
					t.Errorf("submit g%d-%d: %v", g, i, err)
					return
				}
				ids[g] = append(ids[g], v.ID)
			}
		}(g)
	}
	wg.Wait()
	for _, group := range ids {
		for _, id := range group {
			waitState(t, m, id, StateDone)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		t.Error("recompute after restart: a finished job lost its result record")
		return Result{}, nil
	})
	cfg2.Store = w2
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, group := range ids {
		for _, id := range group {
			v, ok := m2.Get(id)
			if !ok {
				t.Fatalf("job %s was acknowledged but is unknown after compaction + restart", id)
			}
			if v.State != StateDone {
				t.Fatalf("job %s replayed as %s, want done", id, v.State)
			}
		}
	}
}

// TestWALWriteFaultIsTransient: a failed write or fsync of the log
// comes back Transient, wrapping the file system's error, so the
// manager retries it; the store appends again once the fault clears.
func TestWALWriteFaultIsTransient(t *testing.T) {
	ffs := fsx.NewFaultFS(fsx.NewMemFS(), 1)
	w, err := OpenWAL("d/jobs.wal", WALOptions{FS: ffs, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []fsx.FaultProfile{{WriteErr: 1}, {SyncErr: 1}} {
		ffs.SetProfile(p)
		err := w.Append(submitRec("j", 1))
		var tr Transient
		var injected *fsx.InjectedError
		if !errors.As(err, &tr) || !errors.As(err, &injected) {
			t.Fatalf("%+v: fault error = %v, want Transient wrapping *fsx.InjectedError", p, err)
		}
		ffs.SetProfile(fsx.FaultProfile{})
		if err := w.Append(submitRec("j", 1)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALClosedStoreErrors(t *testing.T) {
	w, _ := openTestWAL(t, WALOptions{SyncEvery: 1, SyncInterval: -1})
	w.Replay()
	w.Close()
	if err := w.Append(submitRec("j", 1)); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if _, err := w.Replay(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("replay after close = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestManagerOverWALSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	w, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{"wal-run:" + s.Algo}}, nil
	})
	cfg.Store = w
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		t.Error("recompute after WAL restart")
		return Result{}, nil
	})
	cfg2.Store = w2
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, ok := m2.Get(v.ID)
	if !ok || got.State != StateDone || got.Result == nil || got.Result.Lines[0] != "wal-run:tane" {
		t.Fatalf("job after WAL restart = %+v", got)
	}
}

// TestCompactionKeepsFinishedAttempts: a job that finished on its second
// attempt replays with Attempts 2 and Retries 1 from a WAL that an
// online compaction rewrote after its result.
func TestCompactionKeepsFinishedAttempts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Bool
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if failed.CompareAndSwap(false, true) {
			return Result{}, Transient{errors.New("injected fault")}
		}
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg.Store = w
	cfg.CompactEvery = 1 // compact after every finalize, the result's included
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, v.ID, StateDone); got.Attempts != 2 || got.Retries != 1 {
		t.Fatalf("live job: attempts=%d retries=%d, want 2/1", got.Attempts, got.Retries)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// The full history holds two start records; the snapshot one.
	starts := 0
	for _, rec := range recs {
		if rec.Type == RecStart {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("log holds %d start records, want the snapshot's 1: %+v", starts, recs)
	}
	w2.Close()
	w3, err := OpenWAL(path, WALOptions{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		t.Error("finished job re-ran after replay")
		return Result{}, nil
	})
	cfg2.Store = w3
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, ok := m2.Get(v.ID)
	if !ok || got.State != StateDone || got.Attempts != 2 || got.Retries != 1 {
		t.Fatalf("replayed job = %+v, want done with attempts=2 retries=1", got)
	}
}
