package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to drop back to at most
// before, failing t if it doesn't inside the window.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after settle window", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A fan-out after Close fails with the closed context's error, which
// reports as "cancelled", for both the inline and the fanned-out path.
func TestForEachAfterCloseIsCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := Exec{Workers: workers}.Pool(context.Background())
		p.Close()
		ran := false
		err := p.ForEach(3, func(int) { ran = true })
		if !errors.Is(err, context.Canceled) || Reason(err) != "cancelled" {
			t.Fatalf("workers=%d: ForEach after Close = %v, want context.Canceled", workers, err)
		}
		if ran {
			t.Fatalf("workers=%d: a task ran after Close", workers)
		}
	}
}

// Close racing fan-outs from several goroutines must neither panic nor
// hang; each fan-out either completes or reports the cancellation.
func TestForEachCloseHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := Exec{Workers: 4}.Pool(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := p.ForEach(4, func(int) {}); err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("ForEach racing Close = %v, want nil or context.Canceled", err)
						return
					}
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
}

// A pool keeps no goroutines between fan-outs: building one starts none,
// and a fan-out joins every helper it started before it returns.
func TestPoolHoldsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := Exec{Workers: 8}.Pool(context.Background())
	defer p.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("Exec{Workers: 8}.Pool started goroutines: %d before, %d after", before, got)
	}
	if err := p.ForEach(64, func(int) { time.Sleep(10 * time.Microsecond) }); err != nil {
		t.Fatal(err)
	}
	// A joined helper may still be exiting when ForEach returns.
	settleGoroutines(t, before)
}

// Regression: a cancellation landing after the last index completed used
// to surface as a spurious context error; ForEach must return nil when
// every index ran.
func TestForEachNilWhenCancelLandsAfterCompletion(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := Exec{Workers: workers}.Pool(context.Background())
		const n = 64
		var mu sync.Mutex
		done := 0
		err := p.ForEach(n, func(int) {
			mu.Lock()
			done++
			last := done == n
			mu.Unlock()
			if last {
				p.Cancel()
			}
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: ForEach = %v after all %d indices ran, want nil", workers, err, n)
		}
	}
}

func TestReserveAllOrNothing(t *testing.T) {
	p := Exec{Workers: 1, Budget: Budget{MaxTasks: 10}}.Pool(context.Background())
	defer p.Close()
	if err := p.Reserve(8); err != nil {
		t.Fatalf("Reserve(8) under MaxTasks=10 = %v", err)
	}
	if err := p.Reserve(3); !errors.Is(err, ErrMaxTasks) {
		t.Fatalf("Reserve(3) past the budget = %v, want ErrMaxTasks", err)
	}
	if got := p.Used(); got != 8 {
		t.Fatalf("failed reservation must not consume budget: Used = %d, want 8", got)
	}
	if err := p.Err(); !errors.Is(err, ErrMaxTasks) {
		t.Fatalf("exhausted budget must fail the run: Err = %v", err)
	}
	if err := p.ForEach(1, func(int) {}); !errors.Is(err, ErrMaxTasks) {
		t.Fatalf("ForEach on a budget-failed run = %v, want ErrMaxTasks", err)
	}
}

// TestExecShareSpendsOneBudget: pools built one after another from a
// shared Exec charge one MaxTasks counter and inherit one deadline.
func TestExecShareSpendsOneBudget(t *testing.T) {
	ctx, x, cancel := Exec{Workers: 2, Budget: Budget{Timeout: time.Hour, MaxTasks: 10}}.Share(context.Background())
	defer cancel()
	if _, ok := ctx.Deadline(); !ok || x.Budget.Timeout != 0 {
		t.Fatalf("Share must move the Timeout onto the context: deadline set %v, Timeout %v", ok, x.Budget.Timeout)
	}
	first := x.Pool(ctx)
	err := first.ForEach(6, func(int) {})
	first.Close()
	if err != nil {
		t.Fatalf("first pool: ForEach(6) under MaxTasks=10 = %v", err)
	}
	second := x.Pool(ctx)
	err = second.ForEach(6, func(int) {})
	second.Close()
	if !errors.Is(err, ErrMaxTasks) {
		t.Fatalf("second pool: ForEach(6) after 6 of 10 tasks = %v, want ErrMaxTasks", err)
	}
	third := x.Pool(ctx)
	defer third.Close()
	if err := third.ForEach(4, func(int) {}); err != nil || third.Used() != 10 {
		t.Fatalf("third pool: ForEach(4) = %v with Used %d, want nil with all 10 tasks used", err, third.Used())
	}
}

func TestMapBudgetPrefixDeterministic(t *testing.T) {
	const n, batch = 100, 8
	run := func(workers int, maxTasks int64) ([]int, int, error) {
		p := Exec{Workers: workers, Budget: Budget{MaxTasks: maxTasks}}.Pool(context.Background())
		defer p.Close()
		return MapBudget(p, n, batch, func(i int) int { return i * i })
	}
	for _, maxTasks := range []int64{7, 50, 200} {
		seq, seqDone, seqErr := run(1, maxTasks)
		par, parDone, parErr := run(4, maxTasks)
		if seqDone != parDone {
			t.Fatalf("max-tasks=%d: prefix differs by workers: %d vs %d", maxTasks, seqDone, parDone)
		}
		if fmt.Sprint(seq) != fmt.Sprint(par) {
			t.Fatalf("max-tasks=%d: results differ by workers", maxTasks)
		}
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("max-tasks=%d: errors differ by workers: %v vs %v", maxTasks, seqErr, parErr)
		}
		if wantDone := int(min(maxTasks, n) / batch * batch); maxTasks < n && seqDone != wantDone {
			t.Fatalf("max-tasks=%d: done = %d, want the batch-aligned prefix %d", maxTasks, seqDone, wantDone)
		}
		for i, v := range seq {
			if v != i*i {
				t.Fatalf("max-tasks=%d: prefix result out[%d] = %d, want %d", maxTasks, i, v, i*i)
			}
		}
	}
}

func TestPanicErrorTaskAttribution(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := Exec{Workers: workers}.Pool(context.Background())
		err := p.ForEach(50, func(i int) {
			if i == 17 {
				panic("boom")
			}
		})
		p.Close()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: ForEach = %v, want *PanicError", workers, err)
		}
		if pe.Task != 17 {
			t.Fatalf("workers=%d: PanicError.Task = %d, want 17", workers, pe.Task)
		}
		if pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic value/stack lost: %+v", workers, pe)
		}
		if Reason(err) != "panic: boom" {
			t.Fatalf("workers=%d: Reason = %q", workers, Reason(err))
		}
	}
}

func TestAbortDoesNotCountAsCompleted(t *testing.T) {
	sentinel := errors.New("abort sentinel")
	p := Exec{Workers: 4}.Pool(context.Background())
	defer p.Close()
	err := p.ForEach(32, func(i int) {
		if i == 5 {
			Abort(sentinel)
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ForEach = %v, want the aborting error", err)
	}
}

// The three lifecycle paths the failure model promises leave no workers
// behind: plain Close, Cancel-then-Close, and panic-then-Close.
func TestPoolLifecycleNoGoroutineLeaks(t *testing.T) {
	scenarios := []struct {
		name string
		run  func()
	}{
		{"close", func() {
			p := Exec{Workers: 4}.Pool(context.Background())
			_ = p.ForEach(100, func(int) {})
			p.Close()
		}},
		{"cancel-then-close", func() {
			p := Exec{Workers: 4}.Pool(context.Background())
			p.Cancel()
			_ = p.ForEach(100, func(int) {})
			p.Close()
		}},
		{"panic-then-close", func() {
			p := Exec{Workers: 4}.Pool(context.Background())
			_ = p.ForEach(100, func(i int) {
				if i%10 == 3 {
					panic("leak probe")
				}
			})
			p.Close()
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				sc.run()
			}
			settleGoroutines(t, before)
		})
	}
}

// The inline (workers=1) path honors the wall-clock budget between tasks:
// a deadline pool must stop mid-fan-out with the deadline error rather
// than grinding through every index.
func TestInlineWorkerHonorsDeadline(t *testing.T) {
	p := Exec{Workers: 1, Budget: Budget{Timeout: 30 * time.Millisecond}}.Pool(context.Background())
	defer p.Close()
	ran := 0
	err := p.ForEach(1000, func(int) {
		ran++
		time.Sleep(time.Millisecond)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ForEach under expired deadline = %v, want DeadlineExceeded", err)
	}
	if ran == 0 || ran >= 1000 {
		t.Fatalf("deadline should interrupt mid-run: ran = %d of 1000", ran)
	}
	if Reason(err) != "deadline" {
		t.Fatalf("Reason = %q, want deadline", Reason(err))
	}
}

func TestReasonTokens(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrMaxTasks, "max-tasks"},
		{context.DeadlineExceeded, "deadline"},
		{context.Canceled, "cancelled"},
		{&PanicError{Task: 3, Value: "v"}, "panic: v"},
		{errors.New("custom"), "custom"},
	}
	for _, c := range cases {
		if got := Reason(c.err); got != c.want {
			t.Errorf("Reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// A fan-out allocates no closure per index: the sequential path, taken by
// a one-worker pool and by a one-index fan-out, allocates nothing, and a
// parallel fan-out allocates only its fixed per-call state.
func TestForEachAllocs(t *testing.T) {
	sink := make([]int, 256)
	fill := func(i int) { sink[i] = i * i }
	cases := []struct {
		workers, n int
		max        float64
	}{{1, len(sink), 0}, {4, 1, 0}, {4, len(sink), 10}}
	for _, c := range cases {
		p := Exec{Workers: c.workers}.Pool(context.Background())
		allocs := testing.AllocsPerRun(20, func() {
			if err := p.ForEach(c.n, fill); err != nil {
				t.Fatal(err)
			}
		})
		p.Close()
		if allocs > c.max {
			t.Errorf("workers=%d n=%d: %.1f allocs per ForEach, want at most %.0f", c.workers, c.n, allocs, c.max)
		}
	}
}
