package registry

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"deptree/internal/engine"
	"deptree/internal/gen"
)

// budgetSlack is how far past its Timeout a sampled run may return: the
// task in flight when the deadline fires, plus the verifier built before
// the run starts.
const budgetSlack = 40 * time.Millisecond

// TestSampledRunSpendsOneBudget: the discovery and verification phases
// of a sampled run share one budget. Under MaxTasks one below the run's
// unbudgeted task count, at most MaxTasks tasks execute in total (with a
// budget per phase, both phases would fit and all would run); under a
// 40 ms Timeout, with every task slowed by 2 ms, the run returns within
// budgetSlack of the deadline.
func TestSampledRunSpendsOneBudget(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 2000, Seed: 3})
	var tasks, delay atomic.Int64
	defer engine.SetTaskHook(func(*engine.Pool, int) {
		tasks.Add(1)
		time.Sleep(time.Duration(delay.Load()))
	})()
	for _, a := range samplingAlgos(t) {
		o := RunOptions{Workers: 1, SampleRows: 400, SampleSeed: 3}
		tasks.Store(0)
		a.Run(context.Background(), r, o)
		unbudgeted := tasks.Load()
		o.Budget = engine.Budget{MaxTasks: unbudgeted - 1}
		tasks.Store(0)
		out := a.Run(context.Background(), r, o)
		if got := tasks.Load(); got > o.Budget.MaxTasks || out.Reason != "max-tasks" {
			t.Errorf("%s: ran %d tasks under MaxTasks %d (reason %q)", a.Name, got, o.Budget.MaxTasks, out.Reason)
		}

		o.Budget = engine.Budget{Timeout: 40 * time.Millisecond}
		delay.Store(int64(2 * time.Millisecond))
		start := time.Now()
		a.Run(context.Background(), r, o)
		elapsed := time.Since(start)
		delay.Store(0)
		if elapsed > o.Budget.Timeout+budgetSlack {
			t.Errorf("%s: returned after %v under a %v Timeout", a.Name, elapsed, o.Budget.Timeout)
		}
	}
}
