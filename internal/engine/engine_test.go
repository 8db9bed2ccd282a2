package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolInlineSingleWorker(t *testing.T) {
	p := Exec{Workers: 1}.Pool(context.Background())
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", p.Workers())
	}
	// Inline mode must run tasks on the submitting goroutine, in order.
	var order []int
	p.ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline ForEach order = %v", order)
		}
	}
}

func TestPoolForEachCoversAllIndices(t *testing.T) {
	p := Exec{Workers: 4}.Pool(context.Background())
	defer p.Close()
	const n = 1000
	var hits [n]int32
	if err := p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestMapIsPositional(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := Exec{Workers: workers}.Pool(context.Background())
		out, err := MapErr(p, 100, func(i int) int { return i * i })
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestPoolDefaultsWorkers(t *testing.T) {
	p := Exec{}.Pool(context.Background())
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", p.Workers())
	}
}

func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Exec{Workers: 2}.Pool(ctx)
	defer p.Close()

	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	blocked := make(chan error)
	// Occupy both workers with a blocking fan-out, then cancel: later
	// work must be skipped and ForEach must report the context error
	// rather than hang.
	go func() { blocked <- p.ForEach(2, func(int) { started.Done(); <-release }) }()
	started.Wait()
	cancel()
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocking ForEach = %v, want nil: both its indices ran", err)
	}

	var ran int32
	err := p.ForEach(100, func(i int) { atomic.AddInt32(&ran, 1) })
	if err == nil {
		t.Fatal("ForEach after cancel returned nil error")
	}
	if got := atomic.LoadInt32(&ran); got != 0 {
		t.Fatalf("%d tasks ran after cancellation", got)
	}
	if err := p.ForEach(1, func(int) {}); err == nil {
		t.Fatal("one-index ForEach after cancel returned nil error")
	}
}

func TestPoolCancelMidFlight(t *testing.T) {
	p := Exec{Workers: 2}.Pool(context.Background())
	defer p.Close()
	var ran int32
	done := make(chan struct{})
	go func() {
		// Slow tasks so the cancel lands while work remains queued.
		p.ForEach(64, func(i int) {
			atomic.AddInt32(&ran, 1)
			time.Sleep(time.Millisecond)
		})
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	p.Cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after Cancel")
	}
	if got := atomic.LoadInt32(&ran); got == 64 {
		t.Log("all tasks finished before the cancel landed (slow machine); not a failure")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := Exec{Workers: 4}.Pool(context.Background())
	p.ForEach(10, func(int) {})
	p.Close()
	p.Close()
}
