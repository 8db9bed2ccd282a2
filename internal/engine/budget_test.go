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

// Regression: Submit used to race Close and panic on the closed task
// channel; now it must return ErrPoolClosed, including under a concurrent
// hammer of submitters.
func TestSubmitAfterCloseReturnsErrPoolClosed(t *testing.T) {
	p := Exec{Workers: 4}.Pool(context.Background())
	p.Close()
	if err := p.Submit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	if err := p.ForEach(3, func(int) {}); err == nil {
		t.Fatal("ForEach after Close succeeded")
	}
}

func TestSubmitCloseHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := Exec{Workers: 4}.Pool(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					// Any of nil / ErrPoolClosed / context error is fine;
					// a panic on the closed channel is the bug.
					_ = p.Submit(func() {})
					_ = p.ForEach(4, func(int) {})
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
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
	if err := p.Submit(func() {}); !errors.Is(err, ErrMaxTasks) {
		t.Fatalf("Submit on a budget-failed run = %v, want ErrMaxTasks", err)
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

func TestInlineSubmitPanicReturnsError(t *testing.T) {
	p := Exec{Workers: 1}.Pool(context.Background())
	defer p.Close()
	err := p.Submit(func() { panic("inline boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("inline Submit of panicking task = %v, want *PanicError", err)
	}
	if pe.Task != -1 {
		t.Fatalf("direct submissions carry Task = -1, got %d", pe.Task)
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
