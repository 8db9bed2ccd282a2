package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestPollerNilPoolNeverStops(t *testing.T) {
	p := NewPoller(nil)
	for i := 0; i < 3*pollStride; i++ {
		if err := p.Err(1); err != nil {
			t.Fatalf("step %d: Err = %v on a nil pool", i, err)
		}
		p.Tick()
	}
}

// After Cancel, the error form returns the pool's cause within one stride
// of calls, wherever in its stride the poller stood.
func TestPollerErrAfterCancel(t *testing.T) {
	for _, before := range []int{0, 1, pollStride / 2, pollStride - 1, 3 * pollStride} {
		pool := Exec{Workers: 1}.Pool(context.Background())
		p := NewPoller(pool)
		for i := 0; i < before; i++ {
			if err := p.Err(1); err != nil {
				t.Fatalf("healthy pool: Err = %v", err)
			}
		}
		pool.Cancel()
		calls := 0
		var err error
		for err == nil && calls <= pollStride {
			err = p.Err(1)
			calls++
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%d steps before Cancel: no cause after %d calls (err %v)", before, calls, err)
		}
		pool.Close()
	}
}

// A run of steps counted in one call counts as that many steps.
func TestPollerErrCountsRuns(t *testing.T) {
	pool := Exec{Workers: 1}.Pool(context.Background())
	defer pool.Close()
	p := NewPoller(pool)
	if err := p.Err(1); err != nil {
		t.Fatalf("healthy pool: Err = %v", err)
	}
	pool.Cancel()
	if err := p.Err(pollStride - 2); err != nil {
		t.Fatalf("polled %d steps after the last poll", pollStride-2)
	}
	if err := p.Err(2 * pollStride); !errors.Is(err, context.Canceled) {
		t.Fatalf("a run past the stride: Err = %v, want the cause", err)
	}
}

// The abort form unwinds an endless loop inside a ForEach task, and
// ForEach reports the cause; no worker outlives the pool.
func TestPollerTickAbortsTask(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, stop := range []struct {
			name  string
			x     Exec
			first func(*Pool)
			cause error
		}{
			{"cancel", Exec{Workers: workers}, (*Pool).Cancel, context.Canceled},
			{"deadline", Exec{Workers: workers, Budget: Budget{Timeout: 20 * time.Millisecond}}, func(*Pool) {}, context.DeadlineExceeded},
		} {
			before := runtime.NumGoroutine()
			pool := stop.x.Pool(context.Background())
			err := pool.ForEach(8, func(i int) {
				if i == 0 {
					stop.first(pool)
				}
				p := NewPoller(pool)
				for {
					p.Tick()
				}
			})
			if !errors.Is(err, stop.cause) {
				t.Errorf("workers %d, %s: ForEach = %v, want %v", workers, stop.name, err, stop.cause)
			}
			pool.Close()
			settleGoroutines(t, before)
		}
	}
}
