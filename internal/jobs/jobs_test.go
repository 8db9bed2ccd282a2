package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deptree/internal/obs"
)

const smallCSV = "name,city,stars\nalpha,paris,3\nalpha,rome,3\nbeta,rome,4\ngamma,oslo,5\n"

func discoverSpec(algo string) Spec {
	return Spec{Kind: "discover", Algo: algo, CSV: smallCSV, Workers: 2}
}

// fastCfg returns a Config tuned so tests never wait on real backoff.
func fastCfg(run RunFunc) Config {
	return Config{
		Run:             run,
		Runners:         2,
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
		RetryMaxBackoff: 4 * time.Millisecond,
		JitterSeed:      42,
		CompactEvery:    -1,
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, ok := m.Wait(ctx, id, 10*time.Second)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	if v.State != want {
		t.Fatalf("job %s state = %s, want %s (reason %q)", id, v.State, want, v.Reason)
	}
	return v
}

func TestSubmitRunsToDone(t *testing.T) {
	var calls atomic.Int64
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		calls.Add(1)
		return Result{Lines: []string{s.Algo + ": [name]->[city]"}}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.ID, "j000001-") {
		t.Fatalf("job ID %q, want j000001-<fp8> prefix", v.ID)
	}
	if v.State != StateQueued {
		t.Fatalf("initial state = %s, want queued", v.State)
	}
	got := waitState(t, m, v.ID, StateDone)
	if got.Result == nil || len(got.Result.Lines) != 1 {
		t.Fatalf("result = %+v, want one line", got.Result)
	}
	if calls.Load() != 1 {
		t.Fatalf("run calls = %d, want 1", calls.Load())
	}
}

func TestIdempotencyKeyReturnsExistingJob(t *testing.T) {
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{"x"}}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a, err := m.Submit(discoverSpec("tane"), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(discoverSpec("fastfd"), "key-1") // different spec, same key
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("idempotent resubmit returned %s, want %s", b.ID, a.ID)
	}
}

func TestFingerprintCanonicalizesCSV(t *testing.T) {
	a := Spec{Kind: "discover", Algo: "tane", CSV: smallCSV}
	// Same relation, quoted cells: canonical encoding must match.
	b := Spec{Kind: "discover", Algo: "tane", CSV: strings.ReplaceAll(smallCSV, "alpha", `"alpha"`)}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("fingerprints differ for equivalent CSV: %s vs %s", fa, fb)
	}
	if _, err := (Spec{Kind: "discover", CSV: "a,b\n1\n"}).Fingerprint(); err == nil {
		t.Fatal("ragged CSV fingerprinted without error")
	}
}

func TestResultCacheHit(t *testing.T) {
	var calls atomic.Int64
	reg := obs.New()
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		calls.Add(1)
		return Result{Lines: []string{"dep"}}, nil
	})
	cfg.Obs = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateDone)

	b, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateDone || !b.CacheHit {
		t.Fatalf("resubmit state=%s cacheHit=%v, want done from cache", b.State, b.CacheHit)
	}
	if b.Result == nil || len(b.Result.Lines) != 1 || b.Result.Lines[0] != "dep" {
		t.Fatalf("cached result = %+v", b.Result)
	}
	if calls.Load() != 1 {
		t.Fatalf("run calls = %d, want 1 (second submit must not recompute)", calls.Load())
	}
	if got := reg.Counter("jobs.cache.hits").Value(); got != 1 {
		t.Fatalf("jobs.cache.hits = %d, want 1", got)
	}

	// A different algo over the same data is a distinct cache key.
	c, err := m.Submit(discoverSpec("fastfd"), "")
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheHit {
		t.Fatal("different algo must miss the cache")
	}
	waitState(t, m, c.ID, StateDone)
}

func TestPartialResultsAreNotCached(t *testing.T) {
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{"p"}, Partial: true, Reason: "deadline"}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a, _ := m.Submit(discoverSpec("tane"), "")
	waitState(t, m, a.ID, StatePartial)
	b, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit {
		t.Fatal("partial result must not populate the cache")
	}
	waitState(t, m, b.ID, StatePartial)
}

func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	reg := obs.New()
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if calls.Add(1) <= 2 {
			return Result{}, Transient{errors.New("injected store fault")}
		}
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg.Obs = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, _ := m.Submit(discoverSpec("tane"), "")
	got := waitState(t, m, v.ID, StateDone)
	if got.Retries != 2 || got.Attempts != 3 {
		t.Fatalf("retries=%d attempts=%d, want 2/3", got.Retries, got.Attempts)
	}
	if reg.Counter("jobs.retries").Value() != 2 {
		t.Fatalf("jobs.retries = %d, want 2", reg.Counter("jobs.retries").Value())
	}
}

func TestPanicReasonIsRetried(t *testing.T) {
	var calls atomic.Int64
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if calls.Add(1) == 1 {
			return Result{Partial: true, Reason: "panic: boom"}, nil
		}
		return Result{Lines: []string{"ok"}}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, _ := m.Submit(discoverSpec("tane"), "")
	got := waitState(t, m, v.ID, StateDone)
	if got.Retries != 1 {
		t.Fatalf("retries = %d, want 1", got.Retries)
	}
}

func TestBackpressureDoesNotBurnRetryBudget(t *testing.T) {
	// Five saturation rounds exceed MaxAttempts=3: the job must still
	// complete, because admission saturation is backpressure (wait out
	// the spike in the queue), not a transient fault.
	var calls atomic.Int64
	reg := obs.New()
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if calls.Add(1) <= 5 {
			return Result{}, Backpressure{errors.New("saturated")}
		}
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg.Obs = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, _ := m.Submit(discoverSpec("tane"), "")
	got := waitState(t, m, v.ID, StateDone)
	if got.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (backpressure must not burn retry budget)", got.Retries)
	}
	if got.Attempts != 6 {
		t.Fatalf("attempts = %d, want 6", got.Attempts)
	}
	if n := reg.Counter("jobs.backpressure").Value(); n != 5 {
		t.Fatalf("jobs.backpressure = %d, want 5", n)
	}
	if n := reg.Counter("jobs.retries").Value(); n != 0 {
		t.Fatalf("jobs.retries = %d, want 0", n)
	}
}

func TestWakeCoalescingDoesNotStarveIdleRunner(t *testing.T) {
	// Two near-simultaneous submissions into a pool of idle runners send
	// two non-blocking wake signals that can coalesce in the 1-buffered
	// channel. The runner that dequeues the long job must re-arm the
	// signal, or the short job waits behind it with a runner idle.
	release := make(chan struct{})
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if s.Algo == "slow" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return Result{Lines: []string{s.Algo}}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i := 0; i < 10; i++ {
		csv := fmt.Sprintf("a,b\nrow%d,1\nother%d,2\n", i, i) // fresh fingerprint: no cache hits
		slow, err := m.Submit(Spec{Kind: "discover", Algo: "slow", CSV: csv}, "")
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.Submit(Spec{Kind: "discover", Algo: "fast", CSV: csv}, "")
		if err != nil {
			t.Fatal(err)
		}
		// The fast job must finish while the slow one still holds its
		// runner: a dropped wake leaves it queued until slow completes.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		v, ok := m.Wait(ctx, fast.ID, 10*time.Second)
		cancel()
		if !ok || v.State != StateDone {
			t.Fatalf("iteration %d: fast job state = %s, want done while slow job runs (starved runner)", i, v.State)
		}
		release <- struct{}{}
		waitState(t, m, slow.ID, StateDone)
	}
}

func TestCancelRecordRetriedAndSurvivesRestart(t *testing.T) {
	// The first cancel-record append fails; the manager must retry it so
	// a restart replays the job as cancelled instead of re-running work
	// the client was told is cancelled.
	store := NewMemStore()
	var failedOnce atomic.Bool
	store.SetFaultHook(func(op string, rec Record) error {
		if rec.Type == RecCancel && !failedOnce.Swap(true) {
			return Transient{errors.New("injected cancel fault")}
		}
		return nil
	})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return Result{Lines: []string{"ok"}}, nil
		case <-ctx.Done():
			return Result{Partial: true, Reason: "cancelled"}, nil
		}
	})
	cfg.Store = store
	cfg.Runners = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocker, _ := m.Submit(discoverSpec("tane"), "")
	<-started
	queued, _ := m.Submit(discoverSpec("fastfd"), "")
	qv, err := m.Cancel(queued.ID)
	if err != nil || qv.State != StateCancelled {
		t.Fatalf("cancel queued: %v state=%s", err, qv.State)
	}
	if !failedOnce.Load() {
		t.Fatal("fault hook never fired")
	}
	m.Drain()

	var reran atomic.Bool
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if s.Algo == "fastfd" {
			reran.Store(true)
		}
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg2.Store = store
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	v, ok := m2.Get(queued.ID)
	if !ok || v.State != StateCancelled {
		t.Fatalf("cancelled job after restart = %+v, want cancelled", v)
	}
	waitState(t, m2, blocker.ID, StateDone) // the drained blocker re-runs
	if reran.Load() {
		t.Fatal("cancelled job re-ran after restart")
	}
}

func TestRetriesExhaustedFailsTerminally(t *testing.T) {
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{}, Transient{errors.New("always down")}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, _ := m.Submit(discoverSpec("tane"), "")
	got := waitState(t, m, v.ID, StateFailed)
	if !strings.Contains(got.Reason, "retries exhausted") {
		t.Fatalf("reason = %q, want retries-exhausted", got.Reason)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts=3", got.Attempts)
	}
}

func TestTerminalErrorDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		calls.Add(1)
		return Result{}, errors.New("unknown algorithm")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, _ := m.Submit(discoverSpec("nope"), "")
	got := waitState(t, m, v.ID, StateFailed)
	if calls.Load() != 1 {
		t.Fatalf("run calls = %d, want 1 (no retry on terminal error)", calls.Load())
	}
	if got.Reason != "unknown algorithm" {
		t.Fatalf("reason = %q", got.Reason)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		close(started)
		select {
		case <-ctx.Done():
			return Result{Partial: true, Reason: "cancelled"}, nil
		case <-release:
			return Result{Lines: []string{"ok"}}, nil
		}
	})
	cfg.Runners = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(release)

	running, _ := m.Submit(discoverSpec("tane"), "")
	<-started
	queued, _ := m.Submit(discoverSpec("fastfd"), "")

	// Cancel the queued job: terminal immediately, the runner skips it.
	qv, err := m.Cancel(queued.ID)
	if err != nil || qv.State != StateCancelled {
		t.Fatalf("cancel queued: %v state=%s", err, qv.State)
	}
	// Cancel the running job: its context unblocks the run.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateCancelled)

	if _, err := m.Cancel("j999999-deadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown = %v, want ErrUnknownJob", err)
	}
}

func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		<-release
		return Result{}, nil
	})
	cfg.Runners = 1
	cfg.Queue = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(release)

	// Distinct algos keep cache keys distinct. The first job may start
	// running (freeing its queue slot), so overfill by submitting until
	// rejection; with Queue=2 the fourth submit must fail.
	algos := []string{"tane", "fastfd", "cords", "fastdc", "od"}
	var rejected bool
	for i, algo := range algos {
		_, err := m.Submit(discoverSpec(algo), "")
		if errors.Is(err, ErrQueueFull) {
			if i < 2 {
				t.Fatalf("queue full after only %d submissions", i)
			}
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Fatal("bounded queue never rejected")
	}
}

func TestDrainRequeuesAndReplayResumesInOrder(t *testing.T) {
	store := NewMemStore()
	started := make(chan string, 8)
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		started <- s.Algo
		<-ctx.Done()
		return Result{Partial: true, Reason: "cancelled"}, nil
	})
	cfg.Store = store
	cfg.Runners = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, _ := m.Submit(discoverSpec("tane"), "")
	<-started // a is running
	b, _ := m.Submit(discoverSpec("fastfd"), "")
	c, _ := m.Submit(discoverSpec("cords"), "")

	m.Drain()
	// After drain: nothing terminal, all three conceptually queued.
	for _, id := range []string{a.ID, b.ID, c.ID} {
		v, ok := m.Get(id)
		if !ok || v.State.Terminal() {
			t.Fatalf("job %s state after drain = %s, want non-terminal", id, v.State)
		}
	}
	if _, err := m.Submit(discoverSpec("od"), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}

	// "Restart": a new manager over the same store resumes all three in
	// original submission order.
	var mu sync.Mutex
	var ran []string
	reg := obs.New()
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		mu.Lock()
		ran = append(ran, s.Algo)
		mu.Unlock()
		return Result{Lines: []string{s.Algo}}, nil
	})
	cfg2.Store = store
	cfg2.Runners = 1
	cfg2.Obs = reg
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	for _, id := range []string{a.ID, b.ID, c.ID} {
		waitState(t, m2, id, StateDone)
	}
	mu.Lock()
	order := fmt.Sprint(ran)
	mu.Unlock()
	if order != "[tane fastfd cords]" {
		t.Fatalf("replay ran %s, want original submission order", order)
	}
	if got := reg.Counter("jobs.replayed").Value(); got != 3 {
		t.Fatalf("jobs.replayed = %d, want 3", got)
	}
}

func TestReplayServesDoneWithoutRecompute(t *testing.T) {
	store := NewMemStore()
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{"first-run"}}, nil
	})
	cfg.Store = store
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Submit(discoverSpec("tane"), "")
	waitState(t, m, v.ID, StateDone)
	m.Drain()

	var calls atomic.Int64
	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		calls.Add(1)
		return Result{Lines: []string{"second-run"}}, nil
	})
	cfg2.Store = store
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	got, ok := m2.Get(v.ID)
	if !ok || got.State != StateDone || got.Result == nil || got.Result.Lines[0] != "first-run" {
		t.Fatalf("replayed job = %+v, want done with original result", got)
	}
	// The replayed complete result repopulates the cache: a resubmit is
	// a hit, not a recompute.
	re, err := m2.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	if !re.CacheHit || re.State != StateDone || re.Result.Lines[0] != "first-run" {
		t.Fatalf("resubmit after replay = %+v, want cache hit", re)
	}
	if calls.Load() != 0 {
		t.Fatalf("run calls after replay = %d, want 0", calls.Load())
	}
}

func TestCompactionPreservesState(t *testing.T) {
	store := NewMemStore()
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{Lines: []string{s.Algo}}, nil
	})
	cfg.Store = store
	cfg.CompactEvery = 4 // compact aggressively
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for _, algo := range []string{"tane", "fastfd", "cords"} {
		v, err := m.Submit(discoverSpec(algo), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	m.Drain()

	recs, _ := store.Replay()
	// Compaction collapsed history: at most submit, start and result per
	// job plus the records appended after the last compaction.
	if len(recs) > 9 {
		t.Fatalf("store holds %d records after compaction, want <= 9", len(recs))
	}

	cfg2 := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		t.Error("recompute after compaction")
		return Result{}, nil
	})
	cfg2.Store = store
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i, id := range ids {
		v, ok := m2.Get(id)
		if !ok || v.State != StateDone || v.Result == nil {
			t.Fatalf("job %d lost by compaction: %+v", i, v)
		}
	}
}

// TestCompactionCannotSplitAStart forces a compaction into the moment
// between a runner bumping a job's attempt and logging its start
// record. The test holds storeMu across the job's second attempt, so
// its start append waits, and compacts the way maybeCompact does
// (snapshot under m.mu, swap under storeMu) as soon as m.mu shows the
// bumped attempt. A start logged apart from its bump lands after a
// snapshot that already holds it, and the log carries that attempt
// twice. Logged as one step, the bump keeps m.mu until its record is
// appended: m.mu stays held while the test holds storeMu, the test
// gives up after 200 ms of that, and each attempt is logged once.
func TestCompactionCannotSplitAStart(t *testing.T) {
	store := NewMemStore()
	retried := make(chan struct{})
	var once sync.Once
	store.SetFaultHook(func(op string, rec Record) error {
		if op == "append" && rec.Type == RecRetry {
			once.Do(func() { close(retried) })
		}
		return nil
	})
	var calls atomic.Int32
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		if calls.Add(1) == 1 {
			return Result{}, Transient{errors.New("injected")}
		}
		return Result{Lines: []string{"ok"}}, nil
	})
	cfg.Store = store
	cfg.Runners = 1
	cfg.RetryBackoff = 50 * time.Millisecond // the window to take storeMu in
	cfg.RetryMaxBackoff = 50 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Submit(discoverSpec("tane"), "")
	if err != nil {
		t.Fatal(err)
	}
	j := m.jobs[v.ID]
	<-retried
	m.storeMu.Lock() // granted once the retry record is appended
	held := time.Now()
	for time.Since(held) < 200*time.Millisecond {
		if !m.mu.TryLock() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if j.attempts == 2 {
			snap := snapshot(m.order)
			m.mu.Unlock()
			if err := store.Compact(snap); err != nil {
				t.Fatal(err)
			}
			break
		}
		m.mu.Unlock()
		held = time.Now()
		time.Sleep(100 * time.Microsecond)
	}
	m.storeMu.Unlock()
	waitState(t, m, v.ID, StateDone)

	recs, _ := store.Replay()
	starts := map[int]int{}
	for _, rec := range recs {
		if rec.Type == RecStart {
			starts[rec.Attempt]++
		}
	}
	if starts[1] > 1 || starts[2] != 1 {
		t.Fatalf("start records per attempt = %v, want attempt 2 logged once: %+v", starts, recs)
	}
}

func TestListOrdersBySubmission(t *testing.T) {
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var want []string
	for _, algo := range []string{"tane", "fastfd", "cords"} {
		v, _ := m.Submit(discoverSpec(algo), "")
		want = append(want, v.ID)
	}
	vs := m.List()
	if len(vs) != 3 {
		t.Fatalf("list len = %d", len(vs))
	}
	for i, v := range vs {
		if v.ID != want[i] {
			t.Fatalf("list[%d] = %s, want %s", i, v.ID, want[i])
		}
		if v.Result != nil {
			t.Fatal("list must omit result payloads")
		}
	}
}

func TestWaitTimesOutOnRunningJob(t *testing.T) {
	release := make(chan struct{})
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return Result{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(release)

	v, _ := m.Submit(discoverSpec("tane"), "")
	got, ok := m.Wait(context.Background(), v.ID, 30*time.Millisecond)
	if !ok {
		t.Fatal("job unknown")
	}
	if got.State.Terminal() {
		t.Fatalf("state = %s, want non-terminal after timeout", got.State)
	}
	if _, ok := m.Wait(context.Background(), "nope", time.Millisecond); ok {
		t.Fatal("wait on unknown job reported ok")
	}
}

func TestSubmitRejectsMalformedCSV(t *testing.T) {
	m, err := New(fastCfg(func(ctx context.Context, s Spec) (Result, error) {
		return Result{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(Spec{Kind: "discover", Algo: "tane", CSV: "a,b\n1\n"}, ""); err == nil {
		t.Fatal("malformed CSV accepted")
	}
}

func TestStoreFaultOnSubmitSurfaces(t *testing.T) {
	store := NewMemStore()
	store.SetFaultHook(func(op string, rec Record) error {
		if rec.Type == RecSubmit {
			return Transient{errors.New("disk full")}
		}
		return nil
	})
	cfg := fastCfg(func(ctx context.Context, s Spec) (Result, error) { return Result{}, nil })
	cfg.Store = store
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(discoverSpec("tane"), "k"); err == nil {
		t.Fatal("submit succeeded despite store fault")
	}
	// The failed submission must not leak the idempotency key.
	store.SetFaultHook(nil)
	v, err := m.Submit(discoverSpec("tane"), "k")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
}

func TestResultText(t *testing.T) {
	r := Result{Lines: []string{"[a]->[b]"}, Partial: true, Reason: "deadline"}
	want := "[a]->[b]\nPARTIAL: deadline\n"
	if r.Text() != want {
		t.Fatalf("Text() = %q, want %q", r.Text(), want)
	}
}
